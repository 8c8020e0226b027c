(* Fault-isolation layer tests: deterministic crash injection, the
   guard, and quarantine behavior through Optimize.run and
   Pipeline.run_layers (DESIGN §11). *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module Pl = Thistle.Pipeline

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

module Inject = Robust.Inject

(* ------------------------------------------------------------------ *)
(* Inject: text                                                       *)
(* ------------------------------------------------------------------ *)

(* The text of the configs that fingerprints and goldens use: it enters
   [Optimize.config_fingerprint], so it holds byte for byte. *)
let test_to_string_pinned () =
  List.iter
    (fun (expected, t) -> Alcotest.(check string) expected expected (Inject.to_string t))
    [
      ("seed=0", Inject.none);
      ( "seed=7,crash@solve=0.2,crash@layer[resnet-2]=1",
        Inject.(make ~seed:7 [ rule Solve 0.2; rule ~filter:"resnet-2" Layer 1.0 ]) );
      ("seed=11,crash@solve=0.3", Inject.(make ~seed:11 [ rule Solve 0.3 ]));
      ( "seed=-7,crash@solve[yolo]=0.25",
        Inject.(make ~seed:(-7) [ rule ~filter:"yolo" Solve 0.25 ]) );
    ]

(* A probability outside [0, 1] never reaches [crash]. *)
let test_rule_refuses_probability () =
  List.iter
    (fun prob ->
      match Inject.rule Inject.Solve prob with
      | _ -> Alcotest.failf "probability %g accepted" prob
      | exception Invalid_argument _ -> ())
    [ 1.5; -0.1; Float.nan; Float.infinity ];
  ignore (Inject.rule Inject.Solve 0.0);
  ignore (Inject.rule Inject.Solve 1.0)

(* ------------------------------------------------------------------ *)
(* Inject: decisions                                                  *)
(* ------------------------------------------------------------------ *)

(* Decisions are pure functions of (seed, site, provenance, attempt):
   re-asking gives the same answer, and across many distinct
   provenances the firing rate lands near the configured probability. *)
let test_decide_deterministic_and_calibrated () =
  let t = Inject.(make ~seed:3 [ rule Solve 0.3 ]) in
  let provs = List.init 2000 (Printf.sprintf "prov-%d") in
  let fire p = Inject.crash t ~site:"solve" ~provenance:p ~attempt:0 in
  let first = List.map fire provs in
  let second = List.map fire provs in
  Alcotest.(check (list bool)) "repeatable" first second;
  let hits = List.length (List.filter Fun.id first) in
  let rate = float_of_int hits /. 2000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.3" rate)
    true
    (rate > 0.2 && rate < 0.4);
  (* The attempt number enters the hash. *)
  let differs =
    List.exists
      (fun p -> fire p <> Inject.crash t ~site:"solve" ~provenance:p ~attempt:1)
      provs
  in
  Alcotest.(check bool) "attempt re-rolls" true differs

let test_decide_site_kind_filter () =
  let t =
    Inject.(make ~seed:1 [ rule ~filter:"l-large" Solve 1.0; rule ~filter:"l-small" Layer 1.0 ])
  in
  let crash site prov = Inject.crash t ~site ~provenance:prov ~attempt:0 in
  Alcotest.(check bool) "filter match fires" true (crash "solve" "l-large energy");
  Alcotest.(check bool) "filter mismatch silent" false (crash "solve" "l-small energy");
  Alcotest.(check bool) "other site silent" false (crash "integerize" "l-large energy");
  Alcotest.(check bool) "other rule honored" true (crash "layer" "l-small energy");
  Alcotest.(check bool) "other rule's filter applies" false (crash "layer" "l-large");
  Alcotest.(check bool) "none never fires" false
    (Inject.crash Inject.none ~site:"solve" ~provenance:"p" ~attempt:0)

(* ------------------------------------------------------------------ *)
(* Guard                                                              *)
(* ------------------------------------------------------------------ *)

let test_guard_ok () =
  match Robust.guard ~site:"s" ~provenance:"p" (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "value" 42 v
  | Error f -> Alcotest.failf "unexpected failure: %s" (Robust.describe f)

let test_guard_catches () =
  match Robust.guard ~site:"s" ~provenance:"p" (fun () -> failwith "boom") with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
    Alcotest.(check string) "site" "s" f.Robust.site;
    Alcotest.(check string) "provenance" "p" f.Robust.provenance;
    Alcotest.(check bool) "exn captured" true (contains ~sub:"boom" f.Robust.exn);
    Alcotest.(check bool) "describe mentions site" true
      (contains ~sub:"s failed" (Robust.describe f))

(* A failure is a function of the guarded work item alone: the same
   raising body gives the same record, and the same quarantine table,
   whether it fails at once or after 2 ms of work. *)
let test_failure_is_pure () =
  let failure ~work_s =
    let body () =
      let until = Unix.gettimeofday () +. work_s in
      while Unix.gettimeofday () < until do
        ()
      done;
      failwith "boom"
    in
    match Robust.guard ~site:"solve" ~provenance:"l-small energy" body with
    | Ok () -> Alcotest.fail "expected failure"
    | Error f -> f
  in
  let slow = failure ~work_s:0.002 and fast = failure ~work_s:0.0 in
  Alcotest.(check bool) "same record" true (slow = fast);
  let summary f = Format.asprintf "%a" Robust.pp_summary [ f ] in
  Alcotest.(check string) "same summary" (summary fast) (summary slow);
  Alcotest.(check string)
    "pinned summary"
    "site        exception                                provenance\n\
     solve       Failure(\"boom\")                          l-small energy\n"
    (summary slow)

let test_guard_injected_crash () =
  let inject = Inject.(make ~seed:1 [ rule Layer 1.0 ]) in
  match Robust.guard ~inject ~site:"layer" ~provenance:"p" (fun () -> 1) with
  | Ok _ -> Alcotest.fail "expected injected failure"
  | Error f ->
    Alcotest.(check bool) "injected exn" true (contains ~sub:"Injected_fault" f.Robust.exn)

(* ------------------------------------------------------------------ *)
(* Optimize quarantine                                                *)
(* ------------------------------------------------------------------ *)

let tech = Archspec.Technology.table3
let budget = 6.0e5

let nest =
  Workload.Conv.to_nest (Workload.Conv.make ~name:"r-small" ~k:8 ~c:8 ~hw:8 ~rs:3 ())

let opt_config inject =
  {
    O.default_config with
    O.max_choices = 8;
    top_choices = 1;
    jobs = 2;
    inject;
  }

let with_counters f =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let result = f () in
  Obs.Metrics.disable ();
  let counters = Obs.Metrics.counters (Obs.Metrics.snapshot ()) in
  Obs.Metrics.reset ();
  (result, fun name -> Option.value ~default:0 (List.assoc_opt name counters))

let test_optimize_all_crash () =
  let config = opt_config Inject.(make ~seed:1 [ rule Solve 1.0 ]) in
  let result, counter =
    with_counters (fun () -> O.codesign ~config tech ~area_budget:budget F.Energy nest)
  in
  (match result with
  | Ok _ -> Alcotest.fail "expected Error when every solve crashes"
  | Error msg ->
    Alcotest.(check bool) "error mentions quarantine" true
      (contains ~sub:"quarantined" msg));
  Alcotest.(check bool) "quarantined counted" true (counter "robust.quarantined" > 0)

let test_optimize_partial_crash () =
  let config = opt_config Inject.(make ~seed:3 [ rule Solve 0.3 ]) in
  let result, counter =
    with_counters (fun () -> O.codesign ~config tech ~area_budget:budget F.Energy nest)
  in
  match result with
  | Error msg -> Alcotest.failf "expected survivors, got: %s" msg
  | Ok report ->
    Alcotest.(check bool) "some pairs quarantined" true (report.O.failures <> []);
    Alcotest.(check int) "counter matches report"
      (List.length report.O.failures)
      (counter "robust.quarantined");
    List.iter
      (fun f ->
        Alcotest.(check string) "failure site" "solve" f.Robust.site;
        Alcotest.(check bool) "injected exn" true
          (contains ~sub:"Injected_fault" f.Robust.exn))
      report.O.failures

let test_optimize_clean_run_empty_failures () =
  let config = opt_config Inject.(make ~seed:1 [ rule Solve 0.0 ]) in
  match O.codesign ~config tech ~area_budget:budget F.Energy nest with
  | Error msg -> Alcotest.failf "clean run failed: %s" msg
  | Ok report -> Alcotest.(check int) "no failures" 0 (List.length report.O.failures)

(* ------------------------------------------------------------------ *)
(* Pipeline isolation                                                 *)
(* ------------------------------------------------------------------ *)

let layers =
  List.map Workload.Conv.to_nest
    [
      Workload.Conv.make ~name:"l-small" ~k:8 ~c:8 ~hw:8 ~rs:3 ();
      Workload.Conv.make ~name:"l-large" ~k:32 ~c:32 ~hw:16 ~rs:3 ();
      Workload.Conv.make ~name:"l-1x1" ~k:16 ~c:32 ~hw:16 ~rs:1 ();
    ]

let check_isolation entries =
  List.iter
    (fun (e : Pl.entry) ->
      let name = Workload.Nest.name e.Pl.nest in
      match (name, e.Pl.result) with
      | "l-large", Error _ -> ()
      | "l-large", Ok _ -> Alcotest.fail "l-large should have failed"
      | _, Ok _ -> ()
      | _, Error msg -> Alcotest.failf "sibling %s failed: %s" name msg)
    entries

(* A crash at the layer site itself (outside Optimize.run's per-pair
   quarantine) is caught by the pipeline's backstop guard. *)
let test_pipeline_layer_crash_isolated () =
  let config =
    { (opt_config Inject.(make ~seed:1 [ rule ~filter:"l-large" Layer 1.0 ])) with O.jobs = 3 }
  in
  let entries =
    Pl.run_layers ~config tech (F.Codesign { area_budget = budget }) F.Energy layers
  in
  check_isolation entries;
  List.iter
    (fun (e : Pl.entry) ->
      match e.Pl.result with
      | Error msg ->
        Alcotest.(check bool) "error names the injected fault" true
          (contains ~sub:"Injected_fault" msg)
      | Ok _ -> ())
    entries

(* Every pair of one layer crashing quarantines that whole layer into
   its Error entry; siblings are untouched. *)
let test_pipeline_pairs_crash_isolated () =
  let config =
    { (opt_config Inject.(make ~seed:1 [ rule ~filter:"l-large" Solve 1.0 ])) with O.jobs = 3 }
  in
  let entries =
    Pl.run_layers ~config tech (F.Codesign { area_budget = budget }) F.Energy layers
  in
  check_isolation entries;
  List.iter
    (fun (e : Pl.entry) ->
      match e.Pl.result with
      | Error msg ->
        Alcotest.(check bool) "error mentions quarantine" true
          (contains ~sub:"quarantined" msg)
      | Ok _ -> ())
    entries

(* ------------------------------------------------------------------ *)
(* hash64 against its per-byte reference                              *)
(* ------------------------------------------------------------------ *)

(* The [String.iter] fold that the index loop replaced, kept as the
   reference: injection draws and store entry names depend on every
   bit. *)
let hash64_reference s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  let h = Int64.logxor !h (Int64.shift_right_logical !h 33) in
  let h = Int64.mul h 0xff51afd7ed558ccdL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

let prop_hash64_reference =
  QCheck2.Test.make ~name:"hash64 equals the per-byte reference" ~count:2000
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(string_size ~gen:char (int_range 0 700))
    (fun s -> Int64.equal (Robust.hash64 s) (hash64_reference s))

let () =
  Alcotest.run "robust"
    [
      ( "inject",
        [
          Alcotest.test_case "to_string pinned" `Quick test_to_string_pinned;
          Alcotest.test_case "rule refuses probability" `Quick test_rule_refuses_probability;
          Alcotest.test_case "deterministic + calibrated" `Quick
            test_decide_deterministic_and_calibrated;
          Alcotest.test_case "site/kind/filter" `Quick test_decide_site_kind_filter;
        ] );
      ("hash", List.map QCheck_alcotest.to_alcotest [ prop_hash64_reference ]);
      ( "guard",
        [
          Alcotest.test_case "ok passthrough" `Quick test_guard_ok;
          Alcotest.test_case "catches exceptions" `Quick test_guard_catches;
          Alcotest.test_case "failure is pure" `Quick test_failure_is_pure;
          Alcotest.test_case "injected crash" `Quick test_guard_injected_crash;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "all-crash errors" `Quick test_optimize_all_crash;
          Alcotest.test_case "partial crash survives" `Quick test_optimize_partial_crash;
          Alcotest.test_case "clean run, no failures" `Quick
            test_optimize_clean_run_empty_failures;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "layer crash isolated" `Quick
            test_pipeline_layer_crash_isolated;
          Alcotest.test_case "pair crashes isolated" `Quick
            test_pipeline_pairs_crash_isolated;
        ] );
    ]
