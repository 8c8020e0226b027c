(* Fault-isolation layer tests: deterministic injection, the guard, the
   solver's cooperative deadline, and quarantine behavior through
   Optimize.run and Pipeline.run_layers (DESIGN §11). *)

module M = Symexpr.Monomial
module P = Symexpr.Posynomial
module O = Thistle.Optimize
module F = Thistle.Formulate
module Pl = Thistle.Pipeline

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let inject_of spec =
  match Robust.Inject.parse spec with
  | Ok t -> t
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Inject: parsing                                                    *)
(* ------------------------------------------------------------------ *)

let test_parse_roundtrip () =
  let spec = "seed=7,crash@solve=0.2,stall@solve[resnet-2]=1" in
  let t = inject_of spec in
  Alcotest.(check int) "seed" 7 (Robust.Inject.seed t);
  Alcotest.(check string) "round trip" spec (Robust.Inject.to_string t);
  Alcotest.(check bool) "not none" false (Robust.Inject.is_none t);
  Alcotest.(check bool) "none is none" true (Robust.Inject.is_none Robust.Inject.none)

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Robust.Inject.parse spec with
      | Ok _ -> Alcotest.failf "spec %S should not parse" spec
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error mentions inject" spec)
          true
          (contains ~sub:"inject" msg))
    [
      "";
      "crash@solve";
      "crash@=0.5";
      "boom@solve=0.5";
      "crash@solve=1.5";
      "crash@solve=-0.1";
      "crash@solve=nan";
      "seed=x";
      "crash_solve=0.3";
      (* Rules that can never fire: an unknown site (a typo, or an
         unclosed filter, which leaves the site "solve["), and a stall
         at a site that never reads one. *)
      "crash@Solve=1";
      "crash@solve[=0.5";
      "stall@integerize=1";
    ]

(* ------------------------------------------------------------------ *)
(* Inject: decisions                                                  *)
(* ------------------------------------------------------------------ *)

(* Decisions are pure functions of (seed, kind, site, provenance,
   attempt): re-asking gives the same answer, and across many distinct
   provenances the firing rate lands near the configured probability. *)
let test_decide_deterministic_and_calibrated () =
  let t = inject_of "seed=3,crash@solve=0.3" in
  let provs = List.init 2000 (Printf.sprintf "prov-%d") in
  let fire p = Robust.Inject.crash t ~site:"solve" ~provenance:p ~attempt:0 in
  let first = List.map fire provs in
  let second = List.map fire provs in
  Alcotest.(check (list bool)) "repeatable" first second;
  let hits = List.length (List.filter Fun.id first) in
  let rate = float_of_int hits /. 2000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.3" rate)
    true
    (rate > 0.2 && rate < 0.4);
  (* The attempt number enters the hash, so a retry re-rolls. *)
  let differs =
    List.exists
      (fun p -> fire p <> Robust.Inject.crash t ~site:"solve" ~provenance:p ~attempt:1)
      provs
  in
  Alcotest.(check bool) "attempt re-rolls" true differs

let test_decide_site_kind_filter () =
  let t = inject_of "seed=1,crash@solve[l-large]=1,stall@solve[l-small]=1" in
  let crash site prov = Robust.Inject.crash t ~site ~provenance:prov ~attempt:0 in
  let stall site prov = Robust.Inject.stall t ~site ~provenance:prov ~attempt:0 in
  Alcotest.(check bool) "filter match fires" true (crash "solve" "l-large energy");
  Alcotest.(check bool) "filter mismatch silent" false (crash "solve" "l-small energy");
  Alcotest.(check bool) "other site silent" false (crash "integerize" "l-large energy");
  Alcotest.(check bool) "other kind honored" true (stall "solve" "l-small energy");
  Alcotest.(check bool) "stall at other site silent" false
    (stall "integerize" "l-small energy");
  Alcotest.(check bool) "none never fires" false
    (Robust.Inject.crash Robust.Inject.none ~site:"solve" ~provenance:"p" ~attempt:0)

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
    Alcotest.(check int) "attempts" 1 f.Robust.attempts;
    Alcotest.(check bool) "describe mentions site" true
      (contains ~sub:"s failed" (Robust.describe f))

let test_guard_injected_crash () =
  let inject = inject_of "seed=1,crash@layer=1" in
  match Robust.guard ~inject ~site:"layer" ~provenance:"p" (fun () -> 1) with
  | Ok _ -> Alcotest.fail "expected injected failure"
  | Error f ->
    Alcotest.(check bool) "injected exn" true (contains ~sub:"Injected_fault" f.Robust.exn)

(* ------------------------------------------------------------------ *)
(* Solver deadline                                                    *)
(* ------------------------------------------------------------------ *)

(* min x + y s.t. x y >= 1: optimal objective 2. *)
let amgm =
  Gp.Problem.make
    ~objective:(P.add (P.var "x") (P.var "y"))
    ~ineqs:[ ("xy>=1", P.of_monomial (M.make 1.0 [ ("x", -1.0); ("y", -1.0) ])) ]
    ()

let test_solver_deadline () =
  let st = Gp.Solver.fresh_stats () in
  let sol = Gp.Solver.solve ~stats:st ~deadline_ns:0.0 amgm in
  (match sol.Gp.Solver.status with
  | Gp.Solver.Deadline_exceeded -> ()
  | _ -> Alcotest.fail "expected Deadline_exceeded");
  Alcotest.(check int) "deadline hit counted" 1 st.Gp.Solver.deadline_hits;
  Alcotest.(check (list (pair string (float 0.0)))) "no values" [] sol.Gp.Solver.values;
  (* Without a deadline the same problem solves to optimality and no
     hit is recorded. *)
  let st2 = Gp.Solver.fresh_stats () in
  let sol2 = Gp.Solver.solve ~stats:st2 amgm in
  (match sol2.Gp.Solver.status with
  | Gp.Solver.Optimal -> ()
  | _ -> Alcotest.fail "expected Optimal");
  Alcotest.(check int) "no deadline hit" 0 st2.Gp.Solver.deadline_hits

let test_solver_initial_reg () =
  (* The escalated retry regularization must still converge on a clean
     problem, to the same optimum within tolerance. *)
  let sol = Gp.Solver.solve ~initial_reg:1e-5 amgm in
  (match sol.Gp.Solver.status with
  | Gp.Solver.Optimal -> ()
  | _ -> Alcotest.fail "expected Optimal");
  Alcotest.(check bool) "objective near 2" true
    (Float.abs (sol.Gp.Solver.objective -. 2.0) <= 1e-4)

(* ------------------------------------------------------------------ *)
(* Optimize quarantine                                                *)
(* ------------------------------------------------------------------ *)

let tech = Archspec.Technology.table3
let budget = 6.0e5

let nest =
  Workload.Conv.to_nest (Workload.Conv.make ~name:"r-small" ~k:8 ~c:8 ~hw:8 ~rs:3 ())

let opt_config ?(retries = 1) inject =
  {
    O.default_config with
    O.max_choices = 8;
    top_choices = 1;
    jobs = 2;
    retries;
    inject = inject_of inject;
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
  let config = opt_config "seed=1,crash@solve=1" in
  let result, counter =
    with_counters (fun () -> O.codesign ~config tech ~area_budget:budget F.Energy nest)
  in
  (match result with
  | Ok _ -> Alcotest.fail "expected Error when every solve crashes"
  | Error msg ->
    Alcotest.(check bool) "error mentions quarantine" true
      (contains ~sub:"quarantined" msg));
  Alcotest.(check bool) "quarantined counted" true (counter "robust.quarantined" > 0);
  Alcotest.(check bool) "retries counted" true (counter "robust.retries" > 0)

let test_optimize_partial_crash () =
  let config = opt_config "seed=3,crash@solve=0.3" in
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

let test_optimize_stall_quarantine () =
  (* Stalls surface as deterministic deadline hits; with retries off a
     single stall quarantines the pair as Deadline_exceeded. *)
  let config = opt_config ~retries:0 "seed=2,stall@solve=0.4" in
  let result, counter =
    with_counters (fun () -> O.codesign ~config tech ~area_budget:budget F.Energy nest)
  in
  match result with
  | Error msg -> Alcotest.failf "expected survivors, got: %s" msg
  | Ok report ->
    Alcotest.(check bool) "some pairs quarantined" true (report.O.failures <> []);
    List.iter
      (fun f ->
        Alcotest.(check string) "deadline exn" "Deadline_exceeded" f.Robust.exn)
      report.O.failures;
    Alcotest.(check bool) "deadline hits counted" true
      (counter "robust.deadline_hits" > 0);
    Alcotest.(check int) "no retries configured" 0 (counter "robust.retries")

let test_optimize_retry_recovers () =
  (* With one retry allowed, an attempt-0 stall re-rolls on attempt 1:
     with these odds some pairs recover, so the sweep keeps more
     survivors than the retry-less run while counting the retries. *)
  let stalled cfg =
    let result, counter =
      with_counters (fun () ->
          O.codesign ~config:cfg tech ~area_budget:budget F.Energy nest)
    in
    match result with
    | Error msg -> Alcotest.failf "expected survivors, got: %s" msg
    | Ok report -> (List.length report.O.failures, counter)
  in
  let q0, _ = stalled (opt_config ~retries:0 "seed=2,stall@solve=0.4") in
  let q1, counter = stalled (opt_config ~retries:1 "seed=2,stall@solve=0.4") in
  Alcotest.(check bool) "retries counted" true (counter "robust.retries" > 0);
  Alcotest.(check bool)
    (Printf.sprintf "retry keeps more pairs (%d quarantined vs %d)" q1 q0)
    true (q1 < q0)

let test_optimize_clean_run_empty_failures () =
  match O.codesign ~config:(opt_config "seed=1,crash@solve=0") tech ~area_budget:budget
          F.Energy nest
  with
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
    { (opt_config "seed=1,crash@layer[l-large]=1") with O.jobs = 3 }
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
  let config = { (opt_config "seed=1,crash@solve[l-large]=1") with O.jobs = 3 } in
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

let () =
  Alcotest.run "robust"
    [
      ( "inject",
        [
          Alcotest.test_case "parse round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "deterministic + calibrated" `Quick
            test_decide_deterministic_and_calibrated;
          Alcotest.test_case "site/kind/filter" `Quick test_decide_site_kind_filter;
        ] );
      ( "guard",
        [
          Alcotest.test_case "ok passthrough" `Quick test_guard_ok;
          Alcotest.test_case "catches exceptions" `Quick test_guard_catches;
          Alcotest.test_case "injected crash" `Quick test_guard_injected_crash;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "zero deadline trips" `Quick test_solver_deadline;
          Alcotest.test_case "escalated initial reg" `Quick test_solver_initial_reg;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "all-crash errors" `Quick test_optimize_all_crash;
          Alcotest.test_case "partial crash survives" `Quick test_optimize_partial_crash;
          Alcotest.test_case "stall quarantines" `Quick test_optimize_stall_quarantine;
          Alcotest.test_case "retry recovers" `Quick test_optimize_retry_recovers;
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
