(* Sharded, resumable sweeps (DESIGN §12): the partition and journal
   plus the end-to-end contract on Optimize.run — shard journals
   concatenated and resumed, or a killed run resumed from its journal,
   report bit-identically to the uninterrupted single-process run,
   re-solving only the pairs the journal does not already cover. *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module Arch = Archspec.Arch
module Evaluate = Accmodel.Evaluate
module Mapping = Mapspace.Mapping
module Partition = Sweep.Partition
module Journal = Sweep.Journal

let tech = Archspec.Technology.table3
let arch = Arch.make ~name:"mid" ~pes:64 ~registers:64 ~sram_words:8192

let nest =
  Workload.Conv.to_nest
    (Workload.Conv.make ~name:"l-small" ~k:8 ~c:8 ~hw:8 ~rs:3 ())

let fast = { O.default_config with O.max_choices = 8; top_choices = 1; jobs = 2 }

(* ------------------------------------------------------------------ *)
(* Partition                                                          *)
(* ------------------------------------------------------------------ *)

let test_partition_parse () =
  (match Partition.parse "2/5" with
  | Ok t ->
    Alcotest.(check int) "index" 2 t.Partition.index;
    Alcotest.(check int) "count" 5 t.Partition.count;
    Alcotest.(check string) "roundtrip" "2/5" (Partition.to_string t)
  | Error e -> Alcotest.failf "parse 2/5 failed: %s" e);
  List.iter
    (fun s ->
      match Partition.parse s with
      | Ok _ -> Alcotest.failf "parse %S should fail" s
      | Error _ -> ())
    [ ""; "3"; "0/4"; "5/4"; "-1/4"; "1/0"; "a/b"; "1/4/2"; "1.5/4" ]

(* Every shard is choice-complete, the shards are pairwise disjoint, and
   their union is exactly the full pair range — the properties the
   warm-start contract and the merge step both hang off. *)
let test_partition_covers () =
  List.iter
    (fun (nchoices, nplac) ->
      let npairs = nchoices * nplac in
      List.iter
        (fun count ->
          let shards =
            List.init count (fun i ->
                Partition.pair_indices
                  { Partition.index = i + 1; count }
                  ~nplac ~npairs)
          in
          let label fmt =
            Printf.ksprintf
              (fun s -> Printf.sprintf "%dx%d over %d: %s" nchoices nplac count s)
              fmt
          in
          let union = List.sort_uniq compare (List.concat shards) in
          Alcotest.(check (list int))
            (label "union is full range")
            (List.init npairs Fun.id) union;
          Alcotest.(check int)
            (label "disjoint")
            npairs
            (List.fold_left (fun n s -> n + List.length s) 0 shards);
          List.iteri
            (fun i pairs ->
              let t = { Partition.index = i + 1; count } in
              List.iter
                (fun p ->
                  let c = Partition.choice_of ~nplac p in
                  Alcotest.(check bool) (label "selects agrees") true
                    (Partition.selects t ~choice:c);
                  (* choice-complete: the whole choice rides along *)
                  List.iter
                    (fun q ->
                      Alcotest.(check bool)
                        (label "choice %d complete in shard %d" c (i + 1))
                        true
                        (List.mem ((c * nplac) + q) pairs))
                    (List.init nplac Fun.id))
                pairs;
              Alcotest.(check (list int))
                (label "ascending")
                (List.sort compare pairs) pairs)
            shards)
        [ 1; 2; 3; 4; 7 ])
    [ (7, 3); (5, 1); (1, 4); (12, 5) ]

(* ------------------------------------------------------------------ *)
(* Journal                                                            *)
(* ------------------------------------------------------------------ *)

let stats ?(gap = 1e-9) () =
  {
    Gp.Solver.phase1_outer = 2;
    phase2_outer = 11;
    newton_iters = 53;
    backtracks = 7;
    kkt_regularizations = 1;
    cholesky_fallbacks = 0;
    deadline_hits = 0;
    duality_gap = gap;
  }

let ok_entry =
  {
    Journal.pair = 3;
    fingerprint = "00deadbeef00f00d";
    provenance = "l-small energy pe=[k,c] dram=[h,w]";
    fate =
      Journal.Solved
        {
          Gp.Solver.status = Gp.Solver.Optimal;
          objective = 1.25e-7;
          values = [ ("t0.c", 4.0); ("t1.k", -0.0); ("gap", Float.nan) ];
        };
    stats = stats ~gap:Float.nan ();
    retries = 0;
    deadline_hits = 0;
  }

let err_entry =
  {
    Journal.pair = 9;
    fingerprint = "0123456789abcdef";
    provenance = "l-small energy pe=[w] dram=[k]";
    fate =
      Journal.Quarantined
        {
          Robust.site = "solve";
          provenance = "l-small energy pe=[w] dram=[k]";
          exn = "Failure(\"injected\")";
          backtrace = "Raised at line 1\nCalled from \"solver\"\n\tframe \xe2\x80\x94 2";
          elapsed_ns = 1.5e6;
          attempts = 2;
        };
    stats = stats ();
    retries = 1;
    deadline_hits = 1;
  }

let pruned_entry =
  {
    Journal.pair = 5;
    fingerprint = "feedface00000001";
    provenance = "l-small energy pe=[c] dram=[k,h]";
    fate =
      Journal.Pruned
        {
          Analysis.Presolve.steps =
            [
              {
                Analysis.Presolve.var = "t0.k";
                side = Analysis.Presolve.Hi;
                bound = 2.0;
                via = "reg-capacity";
              };
              {
                Analysis.Presolve.var = "t1.c";
                side = Analysis.Presolve.Lo;
                bound = 0x1.8p1;
                via = "vol.c";
              };
            ];
          culprit = "pe-count";
          kind = Analysis.Presolve.Ineq_low;
          bound = 1.0 +. 3e-5;
        };
    stats =
      {
        Gp.Solver.phase1_outer = 0;
        phase2_outer = 0;
        newton_iters = 0;
        backtracks = 0;
        kkt_regularizations = 0;
        cholesky_fallbacks = 0;
        deadline_hits = 0;
        duality_gap = Float.infinity;
      };
    retries = 0;
    deadline_hits = 0;
  }

(* Structural equality is useless under NaN, and bit-exactness is the
   actual contract — so round-trips are compared through the encoder. *)
let test_journal_roundtrip () =
  List.iter
    (fun e ->
      let line = Journal.encode e in
      match Journal.decode line with
      | Error msg -> Alcotest.failf "decode failed: %s\nline: %s" msg line
      | Ok e' ->
        Alcotest.(check string)
          (Printf.sprintf "pair %d round-trips bit-exactly" e.Journal.pair)
          line (Journal.encode e'))
    [ ok_entry; err_entry; pruned_entry ]

let test_journal_bit_exact_floats () =
  match Journal.decode (Journal.encode ok_entry) with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok e -> (
    match e.Journal.fate with
    | Journal.Quarantined _ | Journal.Pruned _ ->
      Alcotest.fail "expected Solved fate"
    | Journal.Solved sol ->
      List.iter2
        (fun (n, v) (n', v') ->
          Alcotest.(check string) "variable name" n n';
          Alcotest.(check int64)
            (Printf.sprintf "%s bits" n)
            (Int64.bits_of_float v) (Int64.bits_of_float v'))
        (match ok_entry.Journal.fate with
        | Journal.Solved s -> s.Gp.Solver.values
        | Journal.Quarantined _ | Journal.Pruned _ -> assert false)
        sol.Gp.Solver.values;
      Alcotest.(check bool) "nan gap survives" true
        (Float.is_nan e.Journal.stats.Gp.Solver.duality_gap))

let with_temp f =
  let path = Filename.temp_file "thistle_sweep" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_journal_torn_tail () =
  with_temp @@ fun path ->
  let oc = open_out path in
  output_string oc (Journal.encode ok_entry);
  output_char oc '\n';
  output_string oc (Journal.encode err_entry);
  output_char oc '\n';
  (* a kill mid-append tears the final line *)
  output_string oc "{\"v\":1,\"pair\":12,\"fp\":\"dead";
  close_out oc;
  match Journal.load path with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok entries ->
    Alcotest.(check (list int)) "torn tail dropped, good lines kept" [ 3; 9 ]
      (List.map (fun e -> e.Journal.pair) entries)

let test_journal_version_gate () =
  with_temp @@ fun path ->
  let line = Journal.encode ok_entry in
  let oc = open_out path in
  output_string oc
    (String.concat "\n"
       [
         line;
         (* same shape, wrong schema version: must not decode *)
         Printf.sprintf "{\"v\":%d%s" (Journal.version + 1)
           (String.sub line 6 (String.length line - 6));
       ]);
  output_char oc '\n';
  close_out oc;
  match Journal.load path with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok entries ->
    Alcotest.(check int) "wrong-version line dropped" 1 (List.length entries)

let test_journal_missing_file () =
  match Journal.load_existing "/nonexistent/thistle.jsonl" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "expected empty journal"
  | Error msg -> Alcotest.failf "missing file should be empty, got: %s" msg

(* Compaction: last entry per pair wins (exactly the resume loader's
   replacement order), output sorted and one line per pair, and the
   compacted file replays byte-identically to the original. *)
let test_journal_compact () =
  let stale = { ok_entry with Journal.fingerprint = "0000000000000000" } in
  let entries = [ stale; err_entry; pruned_entry; ok_entry ] in
  let compacted = Journal.compact entries in
  Alcotest.(check (list int)) "sorted, one entry per pair" [ 3; 5; 9 ]
    (List.map (fun e -> e.Journal.pair) compacted);
  (match List.find_opt (fun e -> e.Journal.pair = 3) compacted with
  | Some e ->
    Alcotest.(check string) "last entry for the pair wins"
      ok_entry.Journal.fingerprint e.Journal.fingerprint
  | None -> Alcotest.fail "pair 3 missing after compaction");
  Alcotest.(check (list string)) "idempotent"
    (List.map Journal.encode compacted)
    (List.map Journal.encode (Journal.compact compacted));
  with_temp @@ fun path ->
  Result.get_ok (Journal.write_file path entries);
  (match Journal.load path with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok loaded ->
    Result.get_ok (Journal.write_file path (Journal.compact loaded));
    let shrunk =
      In_channel.with_open_text path @@ fun ic -> In_channel.input_lines ic
    in
    Alcotest.(check int) "file shrank to one line per pair" 3
      (List.length shrunk);
    (* replay equivalence: the effective (last-wins) entry per pair is
       unchanged, compared through the encoder for bit-exactness *)
    let effective es =
      let tbl = Hashtbl.create 8 in
      List.iter (fun e -> Hashtbl.replace tbl e.Journal.pair e) es;
      List.sort compare
        (Hashtbl.fold (fun p e acc -> (p, Journal.encode e) :: acc) tbl [])
    in
    match Journal.load path with
    | Error msg -> Alcotest.failf "reload failed: %s" msg
    | Ok reloaded ->
      Alcotest.(check (list (pair int string)))
        "compacted journal replays identically" (effective loaded)
        (effective reloaded))

let test_fingerprint_sensitivity () =
  let base = Journal.fingerprint ~config:"cfg-a" ~problem_key:"key-a" in
  Alcotest.(check string) "deterministic" base
    (Journal.fingerprint ~config:"cfg-a" ~problem_key:"key-a");
  Alcotest.(check int) "16 hex digits" 16 (String.length base);
  Alcotest.(check bool) "config changes digest" true
    (base <> Journal.fingerprint ~config:"cfg-b" ~problem_key:"key-a");
  Alcotest.(check bool) "problem changes digest" true
    (base <> Journal.fingerprint ~config:"cfg-a" ~problem_key:"key-b");
  (* the separator keeps (config, key) unambiguous *)
  Alcotest.(check bool) "boundary matters" true
    (Journal.fingerprint ~config:"ab" ~problem_key:"c"
    <> Journal.fingerprint ~config:"a" ~problem_key:"bc")

(* ------------------------------------------------------------------ *)
(* End-to-end: shard journals + resume vs the single-process run       *)
(* ------------------------------------------------------------------ *)

let get = function
  | Ok (r : O.report) -> r
  | Error msg -> Alcotest.failf "optimize failed: %s" msg

let failure_sig (f : Robust.failure) =
  Printf.sprintf "%s:%s:%s@%d" f.Robust.site f.Robust.provenance f.Robust.exn
    f.Robust.attempts

(* Bit-exact textual fingerprint of a report, as in test_determinism. *)
let report_sig (r : O.report) =
  let o = r.O.outcome in
  Format.asprintf
    "arch=%s mapping=(%a) energy=%Lx cycles=%Lx continuous=%Lx enumerated=%d \
     solved=%d totals=(%a) failures=[%s]"
    o.I.arch.Arch.arch_name Mapping.pp o.I.mapping
    (Int64.bits_of_float o.I.metrics.Evaluate.energy_pj)
    (Int64.bits_of_float o.I.metrics.Evaluate.cycles)
    (Int64.bits_of_float r.O.best_continuous)
    r.O.choices_enumerated r.O.choices_solved Gp.Solver.pp_totals
    r.O.solve_totals
    (String.concat ";" (List.map failure_sig r.O.failures))

(* The sweeps whose shards are combined: fixed-arch energy, co-design
   at the Eyeriss area, and delay under the aggregate overlapped model. *)
let energy config = O.dataflow ~config tech arch F.Energy nest

let codesign config =
  O.codesign ~config tech ~area_budget:(Arch.eyeriss_area tech) F.Energy nest

let overlapped_delay config =
  O.dataflow ~config:{ config with O.comm = Archspec.Link.Overlapped } tech arch F.Delay nest

let run_counted ?(sweep = energy) config =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let r = sweep config in
  Obs.Metrics.disable ();
  let counters = Obs.Metrics.counters (Obs.Metrics.snapshot ()) in
  Obs.Metrics.reset ();
  (get r, counters)

let counter counters name =
  match List.assoc_opt name counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %S missing" name

let with_temp_dir f =
  let dir = Filename.temp_file "thistle_sweep" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* A directory given as a journal is an [Error] naming it once, for the
   loader and the writer alike, never an exception.  The writer's temp
   file, next to the journal, is gone afterwards. *)
let test_journal_directory () =
  with_temp_dir @@ fun dir ->
  let expect what = function
    | Ok _ -> Alcotest.failf "%s of a directory must fail" what
    | Error msg ->
      Alcotest.(check string) (what ^ " names the path once") (dir ^ ": Is a directory") msg
  in
  expect "load" (Journal.load dir);
  expect "write_file" (Journal.write_file dir [ ok_entry ]);
  Alcotest.(check (list string))
    "no temp file left" []
    (List.filter
       (String.starts_with ~prefix:(Filename.basename dir ^ ".tmp"))
       (Array.to_list (Sys.readdir (Filename.dirname dir))))

(* Runs shard [i] of [count] with its own journal. *)
let shard_journal ?(sweep = energy) ~config ~dir ~count i =
  let path = Filename.concat dir (Printf.sprintf "s%d-of-%d.jsonl" i count) in
  let shard = { Partition.index = i; count } in
  ignore (get (sweep { config with O.shard; journal = Some path }));
  path

(* Concatenates [files] into [path], in the order given. *)
let concat path files =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun f -> Out_channel.output_string oc (In_channel.with_open_bin f In_channel.input_all))
        files)

(* Shards combine through resume: their journals, concatenated in
   reverse order, resume the unsharded sweep into its exact report
   without a solve. *)
let shard_resume ?(sweep = energy) ?(config = fast) ~count () =
  with_temp_dir @@ fun dir ->
  let full, _ = run_counted ~sweep config in
  let shard_files = List.init count (fun i -> shard_journal ~sweep ~config ~dir ~count (i + 1)) in
  let combined = Filename.concat dir "combined.jsonl" in
  concat combined (List.rev shard_files);
  let resumed, counters =
    run_counted ~sweep { config with O.journal = Some combined; resume = true }
  in
  Alcotest.(check string)
    (Printf.sprintf "resumed %d-shard journals = single-process run" count)
    (report_sig full) (report_sig resumed);
  Alcotest.(check int) "every pair replayed, none stale" 0
    (counter counters "sweep.journal_stale");
  Alcotest.(check int) "no physical solves on resume" 0
    (counter counters "sweep.pairs_solved");
  Alcotest.(check bool) "journal hits fired" true
    (counter counters "sweep.journal_hits" > 0);
  (full, counters)

let test_shard_merge_determinism () = ignore (shard_resume ~count:3 ())

(* Same contract when the sweep quarantines injected faults: the
   resume replays failures with their exact provenance fingerprints. *)
let test_shard_merge_injected () =
  let inject =
    match Robust.Inject.parse "seed=5,crash@solve=0.25" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let full, _ = shard_resume ~config:{ fast with O.inject } ~count:2 () in
  Alcotest.(check bool) "injection actually quarantined pairs" true
    (full.O.failures <> [])

(* The same contract for co-design and for overlapped delay, at two and
   three shards. *)
let test_shard_resume_sweeps () =
  List.iter
    (fun sweep -> List.iter (fun count -> ignore (shard_resume ~sweep ~count ())) [ 2; 3 ])
    [ codesign; overlapped_delay ]

(* The messages logged at [Warning] while [f] runs, with [f]'s result. *)
let warnings_during f =
  let warnings = ref [] in
  let report _src level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kasprintf
          (fun msg ->
            if level = Logs.Warning then warnings := msg :: !warnings;
            over ();
            k ())
          fmt)
  in
  let reporter = Logs.reporter () and level = Logs.level () in
  Logs.set_reporter { Logs.report };
  Logs.set_level (Some Logs.Warning);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.set_level level)
    (fun () ->
      let r = f () in
      (r, List.rev !warnings))

(* A shard journaled under another solver config (a different retry
   policy), appended last: the last entry per pair wins, so each of that
   shard's pairs is stale and re-solved under the resuming config, the
   report is still the unsharded one, and one warning names the journal
   and the stale count. *)
let test_stale_shard () =
  with_temp_dir @@ fun dir ->
  let full, _ = run_counted fast in
  let s1 = shard_journal ~config:fast ~dir ~count:2 1 in
  let s2 = shard_journal ~config:fast ~dir ~count:2 2 in
  let retried = Filename.concat dir "s1-of-2-retries.jsonl" in
  ignore
    (get
       (energy
          {
            fast with
            O.shard = { Partition.index = 1; count = 2 };
            retries = 2;
            journal = Some retried;
          }));
  let shard1_pairs = List.length (Result.get_ok (Journal.load retried)) in
  let combined = Filename.concat dir "combined.jsonl" in
  concat combined [ s1; s2; retried ];
  let (resumed, counters), warnings =
    warnings_during (fun () ->
        run_counted { fast with O.journal = Some combined; resume = true })
  in
  Alcotest.(check string) "report = single-process run" (report_sig full)
    (report_sig resumed);
  Alcotest.(check int) "shard 1's pairs are stale" shard1_pairs
    (counter counters "sweep.journal_stale");
  Alcotest.(check int) "and re-solved" shard1_pairs
    (counter counters "sweep.pairs_solved");
  Alcotest.(check (list string))
    "one warning names the journal and the count"
    [
      Printf.sprintf
        "journal %s: %d stale entries (journaled under a different formulation or \
         solver configuration), re-solving"
        combined shard1_pairs;
    ]
    warnings

(* Kill-and-resume: truncate the journal of a finished jobs=1 run to its
   first K lines (simulating a kill after K completions) and resume.
   The report must be byte-identical and exactly K pairs replayed. *)
let test_kill_and_resume () =
  with_temp_dir @@ fun dir ->
  let config = { fast with O.jobs = 1 } in
  let path = Filename.concat dir "run.jsonl" in
  let full, counters_full =
    run_counted { config with O.journal = Some path }
  in
  let lines =
    In_channel.with_open_text path @@ fun ic ->
    In_channel.input_lines ic
  in
  let npairs = List.length lines in
  Alcotest.(check bool) "journal covers several pairs" true (npairs > 4);
  let k = npairs / 2 in
  let truncated = Filename.concat dir "truncated.jsonl" in
  Out_channel.with_open_text truncated (fun oc ->
      List.iteri
        (fun i l -> if i < k then (output_string oc l; output_char oc '\n'))
        lines);
  let resumed, counters =
    run_counted { config with O.journal = Some truncated; resume = true }
  in
  Alcotest.(check string) "resumed = uninterrupted" (report_sig full)
    (report_sig resumed);
  Alcotest.(check int) "exactly the journaled pairs replayed" k
    (counter counters "sweep.journal_hits");
  Alcotest.(check int) "nothing stale" 0 (counter counters "sweep.journal_stale");
  Alcotest.(check bool) "strictly fewer physical solves" true
    (counter counters "sweep.pairs_solved"
    < counter counters_full "sweep.pairs_solved");
  (* the resume appended the re-solved pairs: the journal is whole again
     and a second resume replays everything *)
  let _, counters2 =
    run_counted { config with O.journal = Some truncated; resume = true }
  in
  Alcotest.(check int) "journal complete after resume" 0
    (counter counters2 "sweep.pairs_solved")

(* A solver-config change must invalidate every journaled pair: the
   fingerprint covers the config, so nothing replays and everything is
   re-solved (and re-journaled) under the new config. *)
let test_stale_fingerprint () =
  with_temp_dir @@ fun dir ->
  let config = { fast with O.jobs = 1 } in
  let path = Filename.concat dir "run.jsonl" in
  let _, counters_full = run_counted { config with O.journal = Some path } in
  let solved = counter counters_full "sweep.pairs_solved" in
  let stale_config =
    { config with O.gp_tol = config.O.gp_tol *. 0.5; journal = Some path; resume = true }
  in
  let _, counters = run_counted stale_config in
  Alcotest.(check int) "no stale entry replays" 0
    (counter counters "sweep.journal_hits");
  Alcotest.(check bool) "stale entries detected" true
    (counter counters "sweep.journal_stale" > 0);
  Alcotest.(check int) "everything re-solved" solved
    (counter counters "sweep.pairs_solved")

(* [resume] without [journal] has nothing to replay: the run refuses it
   up front instead of silently re-solving everything, and solves
   nothing. *)
let test_resume_requires_journal () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let r = O.dataflow ~config:{ fast with O.resume = true } tech arch F.Energy nest in
  Obs.Metrics.disable ();
  let counters = Obs.Metrics.counters (Obs.Metrics.snapshot ()) in
  Obs.Metrics.reset ();
  Alcotest.(check (result reject string))
    "refused" (Error "optimize: resume requires a journal to replay (--journal FILE)")
    (Result.map (fun _ -> ()) r);
  Alcotest.(check int) "nothing solved" 0 (counter counters "sweep.pairs_solved")

let () =
  Alcotest.run "sweep"
    [
      ( "partition",
        [
          Alcotest.test_case "parse" `Quick test_partition_parse;
          Alcotest.test_case "coverage and disjointness" `Quick
            test_partition_covers;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round-trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "bit-exact floats" `Quick
            test_journal_bit_exact_floats;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "version gate" `Quick test_journal_version_gate;
          Alcotest.test_case "missing file" `Quick test_journal_missing_file;
          Alcotest.test_case "directory is an error" `Quick test_journal_directory;
          Alcotest.test_case "compact" `Quick test_journal_compact;
          Alcotest.test_case "fingerprint sensitivity" `Quick
            test_fingerprint_sensitivity;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "shard+merge determinism" `Quick
            test_shard_merge_determinism;
          Alcotest.test_case "injected faults" `Quick test_shard_merge_injected;
          Alcotest.test_case "codesign and overlapped delay" `Quick
            test_shard_resume_sweeps;
          Alcotest.test_case "stale shard appended last" `Quick test_stale_shard;
          Alcotest.test_case "kill and resume" `Quick test_kill_and_resume;
          Alcotest.test_case "stale fingerprint" `Quick test_stale_fingerprint;
          Alcotest.test_case "resume requires journal" `Quick
            test_resume_requires_journal;
        ] );
    ]
