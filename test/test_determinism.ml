(* Determinism regression: the pipeline over a small layer set must
   produce bit-identical results AND bit-identical metric counters for
   `jobs = 1` vs `jobs = 4`, and with tracing on vs off.  This locks in
   the contract documented in obs/metrics.mli: counters are functions of
   the input only (histograms are timing-dependent and excluded), and
   observability must never perturb results. *)

module Pl = Thistle.Pipeline
module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module Arch = Archspec.Arch
module Evaluate = Accmodel.Evaluate
module Mapping = Mapspace.Mapping

let tech = Archspec.Technology.table3

let layers =
  List.map Workload.Conv.to_nest
    [
      Workload.Conv.make ~name:"l-small" ~k:8 ~c:8 ~hw:8 ~rs:3 ();
      Workload.Conv.make ~name:"l-large" ~k:32 ~c:32 ~hw:16 ~rs:3 ();
      Workload.Conv.make ~name:"l-1x1" ~k:16 ~c:32 ~hw:16 ~rs:1 ();
    ]

let budget = 6.0e5
let fast_config = { O.default_config with O.max_choices = 8; top_choices = 1 }

(* A bit-exact textual fingerprint of everything a run reports.  Floats
   go through Int64.bits_of_float so "close enough" can't sneak by.
   Quarantined failures enter through their deterministic fields (site,
   provenance, exception) — elapsed time is wall clock and excluded,
   like the timing histograms. *)
let failure_sig (f : Robust.failure) =
  Printf.sprintf "%s:%s:%s" f.Robust.site f.Robust.provenance f.Robust.exn

let fingerprint (e : Pl.entry) =
  let name = Workload.Nest.name e.Pl.nest in
  match e.Pl.result with
  | Error msg -> Printf.sprintf "%s: error: %s" name msg
  | Ok r ->
    let o = r.O.outcome in
    Format.asprintf
      "%s: arch=%s mapping=(%a) energy=%Lx cycles=%Lx continuous=%Lx enumerated=%d \
       solved=%d tried=%d valid=%d totals=(%a) failures=[%s]"
      name o.I.arch.Arch.arch_name Mapping.pp o.I.mapping
      (Int64.bits_of_float o.I.metrics.Evaluate.energy_pj)
      (Int64.bits_of_float o.I.metrics.Evaluate.cycles)
      (Int64.bits_of_float r.O.best_continuous)
      r.O.choices_enumerated r.O.choices_solved o.I.candidates_tried
      o.I.candidates_valid Gp.Solver.pp_totals r.O.solve_totals
      (String.concat ";" (List.map failure_sig r.O.failures))

(* One instrumented pipeline run; returns fingerprints and the counter
   section of the metrics snapshot, leaving the registry clean. *)
let run ?(config = fast_config) ~jobs ~trace () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  if trace then Obs.Trace.start ();
  let entries =
    Pl.run_layers
      ~config:{ config with O.jobs }
      tech
      (F.Codesign { area_budget = budget })
      F.Energy layers
  in
  if trace then Obs.Trace.stop ();
  Obs.Metrics.disable ();
  let counters = Obs.Metrics.counters (Obs.Metrics.snapshot ()) in
  Obs.Metrics.reset ();
  (entries, List.map fingerprint entries, counters)

let check_same label (_, fps_a, counters_a) (_, fps_b, counters_b) =
  Alcotest.(check (list string)) (label ^ ": results") fps_a fps_b;
  Alcotest.(check (list (pair string int))) (label ^ ": counters") counters_a counters_b

let counter_value counters name =
  match List.assoc_opt name counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %S missing" name

let nonvacuous (_, _, counters) =
  let value = counter_value counters in
  Alcotest.(check bool) "solver ran" true (value "solver.solves" > 0);
  Alcotest.(check bool) "outer iterations counted" true (value "solver.outer_iters" > 0);
  Alcotest.(check bool) "newton steps counted" true (value "solver.newton_steps" > 0);
  Alcotest.(check bool) "tasks counted" true (value "exec.tasks" > 0);
  Alcotest.(check bool) "warm starts fired" true (value "solver.warm_starts" > 0);
  Alcotest.(check bool) "integerizer counted" true
    (value "integerize.candidates_tried" > 0)

let test_jobs_independent () =
  let seq = run ~jobs:1 ~trace:false () in
  let par = run ~jobs:4 ~trace:false () in
  nonvacuous seq;
  check_same "jobs 1 vs jobs 4" seq par

(* Same contract under deterministic fault injection: quarantine
   decisions are pure functions of (seed, site, provenance), so which
   pairs fail, which survive, and every robust.* counter must be
   bit-identical for jobs 1 vs 4. *)
let test_injected_jobs_independent () =
  let inject =
    match Robust.Inject.parse "seed=5,crash@solve=0.25" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let config = { fast_config with O.inject } in
  let seq = run ~config ~jobs:1 ~trace:false () in
  let par = run ~config ~jobs:4 ~trace:false () in
  let entries, _, counters = seq in
  Alcotest.(check bool) "injection quarantined some pairs" true
    (match List.assoc_opt "robust.quarantined" counters with
    | Some v -> v > 0
    | None -> false);
  Alcotest.(check bool) "some layer still survives" true
    (List.exists (fun e -> Result.is_ok e.Pl.result) entries);
  check_same "injected: jobs 1 vs jobs 4" seq par

let test_trace_independent () =
  let plain = run ~jobs:4 ~trace:false () in
  let traced = run ~jobs:4 ~trace:true () in
  check_same "trace off vs on" plain traced;
  (* The trace itself covers every pipeline stage. *)
  let names =
    List.sort_uniq String.compare
      (List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events ()))
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %S present" expected)
        true (List.mem expected names))
    [
      "pipeline";
      "layer";
      "permutations.enumerate";
      "formulate";
      "analysis.presolve";
      "solve";
      "analysis.certify";
      "integerize";
      "evaluate";
    ]

(* Warm starts change the Newton iteration path, so converged optima may
   differ from cold starts in low-order float bits — but never in which
   integer design point wins or (beyond solver tolerance) in the
   continuous objective. *)
let test_warm_start_outcomes () =
  let cfg warm_start = { fast_config with O.warm_start } in
  let warm, _, counters_warm = run ~config:(cfg true) ~jobs:4 ~trace:false () in
  let cold, _, _ = run ~config:(cfg false) ~jobs:4 ~trace:false () in
  Alcotest.(check bool) "warm starts fired" true
    (counter_value counters_warm "solver.warm_starts" > 0);
  List.iter2
    (fun (w : Pl.entry) (c : Pl.entry) ->
      let name = Workload.Nest.name w.Pl.nest in
      match (w.Pl.result, c.Pl.result) with
      | Error a, Error b -> Alcotest.(check string) (name ^ ": same error") b a
      | Ok w, Ok c ->
        let ow = w.O.outcome and oc = c.O.outcome in
        Alcotest.(check string)
          (name ^ ": same arch")
          oc.I.arch.Arch.arch_name ow.I.arch.Arch.arch_name;
        Alcotest.(check string)
          (name ^ ": same mapping")
          (Format.asprintf "%a" Mapping.pp oc.I.mapping)
          (Format.asprintf "%a" Mapping.pp ow.I.mapping);
        Alcotest.(check (float 1e-9))
          (name ^ ": same integer energy")
          oc.I.metrics.Evaluate.energy_pj ow.I.metrics.Evaluate.energy_pj;
        Alcotest.(check (float 1e-9))
          (name ^ ": same integer cycles")
          oc.I.metrics.Evaluate.cycles ow.I.metrics.Evaluate.cycles;
        Alcotest.(check int)
          (name ^ ": same choices solved")
          c.O.choices_solved w.O.choices_solved;
        let rel = Float.abs (w.O.best_continuous -. c.O.best_continuous) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: continuous objective within tolerance (|Δ| = %.3g)" name
             rel)
          true
          (rel <= 1e-6 *. (1.0 +. Float.abs c.O.best_continuous))
      | Ok _, Error m -> Alcotest.failf "%s: cold run failed: %s" name m
      | Error m, Ok _ -> Alcotest.failf "%s: warm run failed: %s" name m)
    warm cold

(* Presolve reductions (constraint elimination) may move the solver's
   iteration path within tolerance, like warm starts — but the selected
   design point and its integer metrics must be bit-identical with the
   pass on or off, and pruning itself never touches a rankable pair.  The presolve.* counters enter the jobs-1
   vs jobs-4 equality above automatically (the default config runs the
   pass in Prune mode). *)
let test_presolve_outcomes () =
  let cfg presolve = { fast_config with O.presolve } in
  let on, _, counters_on = run ~config:(cfg Analysis.Presolve.Prune) ~jobs:4 ~trace:false () in
  let off, _, counters_off = run ~config:(cfg Analysis.Presolve.Off) ~jobs:4 ~trace:false () in
  let value = counter_value counters_off in
  Alcotest.(check int) "off reports no prunes" 0 (value "presolve.pruned");
  Alcotest.(check int) "off drops nothing" 0 (value "presolve.constraints_dropped");
  Alcotest.(check bool) "on-mode counters present" true
    (List.mem_assoc "presolve.pruned" counters_on);
  List.iter2
    (fun (w : Pl.entry) (c : Pl.entry) ->
      let name = Workload.Nest.name w.Pl.nest in
      match (w.Pl.result, c.Pl.result) with
      | Error a, Error b -> Alcotest.(check string) (name ^ ": same error") b a
      | Ok w, Ok c ->
        let ow = w.O.outcome and oc = c.O.outcome in
        Alcotest.(check string)
          (name ^ ": same arch")
          oc.I.arch.Arch.arch_name ow.I.arch.Arch.arch_name;
        Alcotest.(check string)
          (name ^ ": same mapping")
          (Format.asprintf "%a" Mapping.pp oc.I.mapping)
          (Format.asprintf "%a" Mapping.pp ow.I.mapping);
        Alcotest.(check int64)
          (name ^ ": bit-identical integer energy")
          (Int64.bits_of_float oc.I.metrics.Evaluate.energy_pj)
          (Int64.bits_of_float ow.I.metrics.Evaluate.energy_pj);
        Alcotest.(check int64)
          (name ^ ": bit-identical integer cycles")
          (Int64.bits_of_float oc.I.metrics.Evaluate.cycles)
          (Int64.bits_of_float ow.I.metrics.Evaluate.cycles);
        let rel = Float.abs (w.O.best_continuous -. c.O.best_continuous) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: continuous objective within tolerance (|Δ| = %.3g)" name
             rel)
          true
          (rel <= 1e-6 *. (1.0 +. Float.abs c.O.best_continuous))
      | Ok _, Error m -> Alcotest.failf "%s: presolve-off run failed: %s" name m
      | Error m, Ok _ -> Alcotest.failf "%s: presolve-on run failed: %s" name m)
    on off

let () =
  Alcotest.run "determinism"
    [
      ( "pipeline",
        [
          Alcotest.test_case "jobs-independent" `Quick test_jobs_independent;
          Alcotest.test_case "injected jobs-independent" `Quick
            test_injected_jobs_independent;
          Alcotest.test_case "trace-independent" `Quick test_trace_independent;
          Alcotest.test_case "warm-start outcomes" `Quick test_warm_start_outcomes;
          Alcotest.test_case "presolve outcomes" `Quick test_presolve_outcomes;
        ] );
    ]
