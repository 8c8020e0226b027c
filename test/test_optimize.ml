(* End-to-end tests of the Thistle driver: dataflow optimization for fixed
   architectures, co-design under an area budget, and the paper's expected
   dominance relations between the two. *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module S = Mapper.Search
module Arch = Archspec.Arch
module Mapping = Mapspace.Mapping
module Evaluate = Accmodel.Evaluate

let tech = Archspec.Technology.table3

let small_conv () =
  Workload.Conv.to_nest (Workload.Conv.make ~name:"small" ~k:16 ~c:16 ~hw:16 ~rs:3 ())

let arch = Arch.make ~name:"mid" ~pes:64 ~registers:64 ~sram_words:8192

let get = function
  | Ok (r : O.report) -> r
  | Error msg -> Alcotest.failf "optimize failed: %s" msg

(* A reduced exploration keeps the end-to-end suite fast; the full
   settings are exercised by the reproduction harness. *)
let fast = { O.default_config with O.max_choices = 10; top_choices = 2 }

let test_dataflow_valid () =
  let nest = small_conv () in
  let r = get (O.dataflow ~config:fast tech arch F.Energy nest) in
  let o = r.O.outcome in
  Alcotest.(check (result unit string))
    "mapping valid" (Ok ())
    (Mapping.validate nest o.I.mapping);
  Alcotest.(check bool) "solved several" true (r.O.choices_solved > 1);
  (* The continuous relaxation over-approximates halo volumes and the
     integer point rounds tile sizes, so the two can differ in either
     direction — but only modestly. *)
  let ratio = r.O.best_continuous /. o.I.metrics.Evaluate.energy_pj in
  Alcotest.(check bool)
    (Printf.sprintf "continuous/integer ratio %.3f in [0.5, 2]" ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

(* Thistle's optimized dataflow should not lose to a seeded random search
   with a healthy trial budget (the paper's Fig. 4 relationship). *)
let test_beats_or_matches_mapper () =
  let nest = small_conv () in
  let r = get (O.dataflow ~config:fast tech arch F.Energy nest) in
  let thistle_energy = r.O.outcome.I.metrics.Evaluate.energy_pj in
  let config = { S.max_trials = 5000; victory_condition = 5000; seed = 1 } in
  let mapper = S.search ~config ~comm:Archspec.Link.Overlapped tech arch S.Min_energy nest in
  match mapper.S.best with
  | None -> Alcotest.fail "mapper found nothing"
  | Some (_, e) ->
    Alcotest.(check bool)
      (Printf.sprintf "thistle %.3g <= 1.05 * mapper %.3g" thistle_energy
         e.Evaluate.energy_pj)
      true
      (thistle_energy <= e.Evaluate.energy_pj *. 1.05)

(* Co-design at the area of the fixed architecture should match or beat
   the fixed architecture's optimized dataflow (Fig. 5 relationship). *)
let test_codesign_beats_fixed () =
  let nest = small_conv () in
  let fixed = get (O.dataflow ~config:fast tech arch F.Energy nest) in
  let budget = Arch.area tech arch in
  let codesign = get (O.codesign ~config:fast tech ~area_budget:budget F.Energy nest) in
  let e_fixed = fixed.O.outcome.I.metrics.Evaluate.energy_pj in
  let e_codesign = codesign.O.outcome.I.metrics.Evaluate.energy_pj in
  Alcotest.(check bool)
    (Printf.sprintf "codesign %.3g <= 1.05 * fixed %.3g" e_codesign e_fixed)
    true
    (e_codesign <= e_fixed *. 1.05);
  Alcotest.(check bool)
    "within budget" true
    (Arch.area tech codesign.O.outcome.I.arch <= budget)

let test_delay_objective () =
  let nest = small_conv () in
  let r = get (O.dataflow ~config:fast tech arch F.Delay nest) in
  let m = r.O.outcome.I.metrics in
  Alcotest.(check bool)
    "ipc <= P" true
    (m.Evaluate.ipc <= float_of_int arch.Arch.pe_count +. 1e-9);
  Alcotest.(check bool)
    "cycles >= macs / P" true
    (m.Evaluate.cycles
    >= (Workload.Nest.ops nest /. float_of_int arch.Arch.pe_count) -. 1e-9);
  (* Delay optimization should saturate a good fraction of the array on
     this comfortably parallel layer. *)
  Alcotest.(check bool)
    (Printf.sprintf "ipc %.1f >= 16" m.Evaluate.ipc)
    true (m.Evaluate.ipc >= 16.0)

let test_edp_objective () =
  let nest = small_conv () in
  let edp (m : Evaluate.t) = m.Evaluate.energy_pj *. m.Evaluate.cycles in
  let r_edp = get (O.run ~config:fast tech (F.Fixed arch) F.Edp nest) in
  let r_energy = get (O.run ~config:fast tech (F.Fixed arch) F.Energy nest) in
  let r_delay = get (O.run ~config:fast tech (F.Fixed arch) F.Delay nest) in
  let edp_of (r : O.report) = edp r.O.outcome.I.metrics in
  (* The EDP-optimal point should beat (or match) the products achieved
     by the single-criterion optimizations, modulo integerization. *)
  Alcotest.(check bool)
    (Printf.sprintf "edp %.3g <= energy-run %.3g" (edp_of r_edp) (edp_of r_energy))
    true
    (edp_of r_edp <= edp_of r_energy *. 1.10);
  Alcotest.(check bool)
    (Printf.sprintf "edp %.3g <= delay-run %.3g" (edp_of r_edp) (edp_of r_delay))
    true
    (edp_of r_edp <= edp_of r_delay *. 1.10)

let test_matmul_workload () =
  (* The optimizer is not conv-specific: the paper's Fig. 1 example. *)
  let nest = Workload.Matmul.nest ~ni:64 ~nj:64 ~nk:64 () in
  let r = get (O.dataflow ~config:fast tech arch F.Energy nest) in
  Alcotest.(check (result unit string))
    "mapping valid" (Ok ())
    (Mapping.validate nest r.O.outcome.I.mapping)

let test_infeasible_arch () =
  let nest = small_conv () in
  let hopeless = Arch.make ~name:"hopeless" ~pes:1 ~registers:2 ~sram_words:16 in
  match O.dataflow tech hopeless F.Energy nest with
  | Error _ -> ()
  | Ok r ->
    Alcotest.failf "expected failure, got %g pJ"
      r.O.outcome.I.metrics.Evaluate.energy_pj

(* The parallel sweep must be a pure scheduling change: whatever [jobs]
   is, the report (mapping, metrics, counters) is bit-identical to the
   sequential path.  Checked on two real zoo layers. *)
let test_jobs_determinism () =
  List.iter
    (fun layer_name ->
      let nest = Workload.Conv.to_nest (Workload.Zoo.find layer_name) in
      let run jobs =
        let config = { O.default_config with O.max_choices = 8; top_choices = 2; jobs } in
        get (O.dataflow ~config tech arch F.Energy nest)
      in
      Alcotest.(check bool)
        (layer_name ^ ": jobs=4 report = jobs=1 report")
        true
        (run 4 = run 1))
    [ "resnet-2"; "yolo-2" ]

(* The problem key must identify programs by their mathematics alone:
   renaming constraints keeps the key, perturbing any coefficient or
   exponent changes it. *)
let test_problem_key () =
  let module M = Symexpr.Monomial in
  let module P = Symexpr.Posynomial in
  let problem ?(coeff = 2.0) ?(cname = "cap") () =
    Gp.Problem.make
      ~objective:
        (P.of_monomials [ M.make 1.0 [ ("x", 1.0) ]; M.make coeff [ ("y", 1.0) ] ])
      ~ineqs:[ (cname, P.of_monomial (M.make 0.5 [ ("x", -1.0); ("y", -1.0) ])) ]
      ~eqs:[ ("tie", M.make 0.25 [ ("x", 1.0); ("y", -1.0) ]) ]
      ()
  in
  let base = O.problem_key (problem ()) in
  Alcotest.(check string) "renamed constraint keeps key" base
    (O.problem_key (problem ~cname:"budget" ()));
  Alcotest.(check bool) "perturbed coefficient changes key" true
    (base <> O.problem_key (problem ~coeff:2.0000000001 ()))

(* Regression: a NaN-scored candidate must never displace a finite one.
   The old best-outcome fold asked "is the incumbent strictly better than
   the challenger?" — every comparison against NaN answers false, so a
   NaN challenger *replaced* a finite incumbent; and raw [Float.compare]
   orders NaN before every finite float, so a NaN objective topped the
   ascending continuous shortlist. *)
let test_nan_ordering () =
  let check = Alcotest.(check int) in
  check "finite ascending" (-1) (O.compare_scores 1.0 2.0);
  check "finite descending" 1 (O.compare_scores 2.0 1.0);
  check "finite ties" 0 (O.compare_scores 1.0 1.0);
  check "nan after finite" 1 (O.compare_scores Float.nan 1.0);
  check "finite before nan" (-1) (O.compare_scores 1.0 Float.nan);
  check "inf after finite" 1 (O.compare_scores Float.infinity 1.0);
  check "neg-inf after finite" 1 (O.compare_scores Float.neg_infinity 1.0);
  check "non-finite ties" 0 (O.compare_scores Float.nan Float.infinity);
  (* Sorting a shortlist with a NaN entry keeps the finite minimum on
     top — the exact ranking the solve-stage shortlist performs. *)
  let sorted = List.sort O.compare_scores [ 3.0; Float.nan; 1.0; 2.0 ] in
  Alcotest.(check (float 0.0)) "nan sorts last" 1.0 (List.hd sorted)

let test_select_best_nan () =
  let best = O.select_best ~score:Fun.id in
  let check_some name exp got =
    match got with
    | Some v when v = exp || (Float.is_nan exp && Float.is_nan v) -> ()
    | Some v -> Alcotest.failf "%s: expected %h, got %h" name exp v
    | None -> Alcotest.failf "%s: got None" name
  in
  Alcotest.(check bool) "empty list" true (best [] = None);
  check_some "nan challenger loses" 1.0 (best [ 1.0; Float.nan ]);
  check_some "nan incumbent loses" 1.0 (best [ Float.nan; 1.0 ]);
  check_some "finite minimum wins" 1.0 (best [ 3.0; Float.nan; 1.0; 2.0 ]);
  check_some "all-nan still answers" Float.nan (best [ Float.nan; Float.nan ]);
  check_some "inf loses to finite" 1.0 (best [ Float.infinity; 1.0 ])

let test_config_knobs () =
  let nest = small_conv () in
  let config = { O.default_config with O.max_choices = 2; top_choices = 1 } in
  let r = get (O.dataflow ~config tech arch F.Energy nest) in
  Alcotest.(check bool) "choices capped" true (r.O.choices_enumerated <= 2)

(* Sweeps are not sharded, journaled or resumed, and solves have no
   deadline and are not retried: [run] refuses a non-default value of
   any of those five fields with one message per group, before any
   work, so no caller believes it sharded or journaled a sweep or
   bounded or retried a solve. *)
let test_refuses_shard_journal_resume () =
  let nest = small_conv () in
  let journal = Filename.temp_file "thistle-refused" ".jsonl" in
  Sys.remove journal;
  let sweeps =
    "optimize: sweeps are not sharded, journaled or resumed (shard, journal and resume \
     must keep their defaults)"
  and solves =
    "optimize: solves have no deadline and are not retried (solve_deadline_ms and retries \
     must keep their defaults)"
  in
  List.iter
    (fun (field, config, expected) ->
      match O.run ~config tech (F.Fixed arch) F.Energy nest with
      | Ok _ -> Alcotest.failf "a non-default %s must be refused" field
      | Error msg -> Alcotest.(check string) field expected msg)
    [
      ("shard", { fast with O.shard = { Sweep.Partition.index = 1; count = 2 } }, sweeps);
      ("journal", { fast with O.journal = Some journal }, sweeps);
      ("resume", { fast with O.resume = true }, sweeps);
      ("solve_deadline_ms", { fast with O.solve_deadline_ms = Some 1e9 }, solves);
      ("retries", { fast with O.retries = 1 }, solves);
    ];
  Alcotest.(check bool) "no journal written" false (Sys.file_exists journal)

(* Enumeration is one stage of a request: a traced run records it as
   exactly one span, at any [jobs]. *)
let test_enumerate_span () =
  let nest = small_conv () in
  let config = { fast with O.max_choices = 2; jobs = 2 } in
  Obs.Trace.start ();
  let r =
    Fun.protect ~finally:Obs.Trace.stop (fun () -> O.dataflow ~config tech arch F.Energy nest)
  in
  ignore (get r);
  let spans =
    List.filter (fun e -> e.Obs.Trace.name = "permutations.enumerate") (Obs.Trace.events ())
  in
  Alcotest.(check int) "one permutations.enumerate span" 1 (List.length spans)

(* A 1x1 convolution with a 1x1 kernel has no tileable dim: every trip
   variable is pinned, so its programs range over the arch and delay
   variables alone, which the solver must settle without help from
   presolve.  Each objective answers on fixed Eyeriss and on co-design
   at its area with a pinned design.  Under co-design Delay designs of
   equal cycles tie and candidate order picks one, so only its cycles
   are pinned. *)
let test_no_tileable_dim () =
  let nest =
    Workload.Conv.to_nest (Workload.Conv.make ~name:"unit" ~k:1 ~c:1 ~hw:1 ~rs:1 ())
  in
  let fixed = F.Fixed Arch.eyeriss in
  let codesign = F.Codesign { area_budget = Arch.eyeriss_area tech } in
  List.iter
    (fun (name, mode, objective, pes, energy) ->
      match O.run tech mode objective nest with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok r ->
        let o = r.O.outcome in
        let m = o.I.metrics in
        Alcotest.(check (float 0.0)) (name ^ ": cycles") 0x1.8cp+3 m.Evaluate.cycles;
        Option.iter
          (fun e -> Alcotest.(check (float 0.0)) (name ^ ": energy") e m.Evaluate.energy_pj)
          energy;
        Option.iter
          (fun p -> Alcotest.(check int) (name ^ ": PEs") p o.I.arch.Arch.pe_count)
          pes)
    [
      ("fixed energy", fixed, F.Energy, Some 168, Some 0x1.25fa8dbabe2c7p+9);
      ("fixed delay", fixed, F.Delay, Some 168, Some 0x1.25fa8dbabe2c7p+9);
      ("fixed edp", fixed, F.Edp, Some 168, Some 0x1.25fa8dbabe2c7p+9);
      ("codesign energy", codesign, F.Energy, Some 1, Some 0x1.01635b81dbe2cp+9);
      ("codesign delay", codesign, F.Delay, None, None);
      ("codesign edp", codesign, F.Edp, Some 1, Some 0x1.01635b81dbe2cp+9);
    ]

let () =
  Alcotest.run "optimize"
    [
      ( "dataflow",
        [
          Alcotest.test_case "valid outcome" `Quick test_dataflow_valid;
          Alcotest.test_case "matches mapper" `Quick test_beats_or_matches_mapper;
          Alcotest.test_case "matmul workload" `Quick test_matmul_workload;
          Alcotest.test_case "infeasible arch" `Quick test_infeasible_arch;
          Alcotest.test_case "config knobs" `Quick test_config_knobs;
          Alcotest.test_case "refuses shard, journal and resume" `Quick
            test_refuses_shard_journal_resume;
          Alcotest.test_case "problem key" `Quick test_problem_key;
          Alcotest.test_case "nan ordering" `Quick test_nan_ordering;
          Alcotest.test_case "select best vs nan" `Quick test_select_best_nan;
          Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
          Alcotest.test_case "enumerate span" `Quick test_enumerate_span;
        ] );
      ( "codesign",
        [
          Alcotest.test_case "beats fixed at equal area" `Quick test_codesign_beats_fixed;
          Alcotest.test_case "no tileable dim" `Quick test_no_tileable_dim;
        ] );
      ( "delay",
        [
          Alcotest.test_case "delay objective" `Quick test_delay_objective;
          Alcotest.test_case "edp objective" `Quick test_edp_objective;
        ] );
    ]
