(* Tests for the conversion of real-valued solver output into integer
   design points (Section IV): divisor ladders, candidate filtering and
   model-ranked selection. *)

module F = Thistle.Formulate
module Perm = Thistle.Permutations
module I = Thistle.Integerize
module Arch = Archspec.Arch
module Mapping = Mapspace.Mapping
module Nest = Workload.Nest

let tech = Archspec.Technology.table3

let small_conv () =
  Workload.Conv.to_nest (Workload.Conv.make ~name:"small" ~k:16 ~c:16 ~hw:16 ~rs:3 ())

let solve_first ?(objective = F.Energy) arch_mode nest =
  let plan = Perm.enumerate nest in
  let inst = F.build tech arch_mode objective plan (List.hd plan.Perm.choices) in
  let sol = Gp.Solver.solve inst.F.problem in
  (inst, sol)

let test_fixed_outcome_valid () =
  let nest = small_conv () in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let inst, sol = solve_first (F.Fixed arch) nest in
  match I.run tech inst sol with
  | Error msg -> Alcotest.failf "integerize failed: %s" msg
  | Ok o ->
    Alcotest.(check string) "same arch" "a" o.I.arch.Arch.arch_name;
    Alcotest.(check (result unit string))
      "mapping valid" (Ok ())
      (Mapping.validate nest o.I.mapping);
    Alcotest.(check bool) "tried some" true (o.I.candidates_tried > 0);
    Alcotest.(check bool) "some valid" true (o.I.candidates_valid > 0);
    (* The window dims sit fully at the register level. *)
    Alcotest.(check int) "r at register level" 3 (Mapping.factor o.I.mapping ~level:0 "r");
    Alcotest.(check int) "r nowhere else" 1 (Mapping.factor o.I.mapping ~level:3 "r");
    (* Metrics respect the architecture (evaluate would have failed
       otherwise), and the score is finite. *)
    Alcotest.(check bool)
      "finite energy" true
      (Float.is_finite o.I.metrics.Accmodel.Evaluate.energy_pj)

let test_integer_close_to_continuous () =
  let nest = small_conv () in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let inst, sol = solve_first (F.Fixed arch) nest in
  let o = Result.get_ok (I.run tech inst sol) in
  (* The integer design evaluated by the exact model should be within a
     modest factor of the continuous relaxation's objective. *)
  let ratio = o.I.metrics.Accmodel.Evaluate.energy_pj /. sol.Gp.Solver.objective in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f in [0.8, 2]" ratio)
    true
    (ratio > 0.8 && ratio < 2.0)

let test_codesign_area_respected () =
  let nest = small_conv () in
  let budget = Arch.eyeriss_area tech in
  let inst, sol = solve_first (F.Codesign { area_budget = budget }) nest in
  match I.run tech inst sol with
  | Error msg -> Alcotest.failf "integerize failed: %s" msg
  | Ok o ->
    let area = Arch.area tech o.I.arch in
    Alcotest.(check bool)
      (Printf.sprintf "area %.0f <= budget %.0f" area budget)
      true (area <= budget);
    (* Capacities are powers of two, as the paper rounds them. *)
    let is_pow2 n = n land (n - 1) = 0 in
    Alcotest.(check bool) "registers pow2" true (is_pow2 o.I.arch.Arch.registers_per_pe);
    Alcotest.(check bool) "sram pow2" true (is_pow2 o.I.arch.Arch.sram_words);
    (* The built architecture supplies exactly the PEs the mapping uses. *)
    Alcotest.(check int)
      "PEs = spatial size"
      (Mapping.spatial_size o.I.mapping)
      o.I.arch.Arch.pe_count

let test_delay_scoring () =
  let nest = small_conv () in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let inst, sol = solve_first ~objective:F.Delay (F.Fixed arch) nest in
  let o = Result.get_ok (I.run tech inst sol) in
  Alcotest.(check bool)
    "score is cycles" true
    (I.score F.Delay o.I.metrics = o.I.metrics.Accmodel.Evaluate.cycles);
  Alcotest.(check bool)
    "ipc <= pe count" true
    (o.I.metrics.Accmodel.Evaluate.ipc <= float_of_int arch.Arch.pe_count)

(* Widening the divisor ladder must not degrade the chosen design (the
   ladder is trimmed closest-first, so n = 3 explores a superset of the
   promising region that n = 2 does). *)
let test_ladder_width_monotone () =
  let module O = Thistle.Optimize in
  let nest =
    Workload.Conv.to_nest
      (Workload.Conv.make ~name:"gap" ~k:16 ~c:8 ~hw:16 ~rs:1 ~stride:2 ())
  in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let energy n =
    let config = { O.default_config with O.n_divisors = n; top_choices = 2 } in
    match O.dataflow ~config tech arch F.Energy nest with
    | Ok r -> r.O.outcome.I.metrics.Accmodel.Evaluate.energy_pj
    | Error msg -> Alcotest.failf "n=%d failed: %s" n msg
  in
  let e2 = energy 2 and e3 = energy 3 in
  Alcotest.(check bool)
    (Printf.sprintf "n=3 (%.4g) within 5%% of n=2 (%.4g)" e3 e2)
    true
    (e3 <= e2 *. 1.05)

let test_utilization_filter () =
  let nest = small_conv () in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let inst, sol = solve_first (F.Fixed arch) nest in
  (* An impossible threshold rejects every candidate. *)
  (match I.run ~min_pe_utilization:1.01 tech inst sol with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the utilization filter to reject everything");
  (* A satisfiable threshold constrains the chosen point. *)
  match I.run ~min_pe_utilization:0.5 tech inst sol with
  | Error msg -> Alcotest.failf "filter too strict: %s" msg
  | Ok o ->
    let utilization =
      float_of_int (Mapping.spatial_size o.I.mapping)
      /. float_of_int o.I.arch.Arch.pe_count
    in
    Alcotest.(check bool)
      (Printf.sprintf "utilization %.2f >= 0.5" utilization)
      true (utilization >= 0.5)

(* Pinned trip counts arrive from the solver as floats a few ulps off
   the integer; truncation used to turn 3.9999999 into 3 and shift the
   whole divisor ladder.  Rounding must absorb tiny perturbations, and
   genuinely non-integer pinned values must be rejected up front. *)
let test_pinned_rounding () =
  let nest = small_conv () in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let inst, sol = solve_first (F.Fixed arch) nest in
  let perturb delta =
    { inst with F.pinned = List.map (fun (x, v) -> (x, v +. delta)) inst.F.pinned }
  in
  let baseline = Result.get_ok (I.run tech inst sol) in
  (match I.run tech (perturb (-1e-9)) sol with
  | Error msg -> Alcotest.failf "ulp-low pinned values rejected: %s" msg
  | Ok o ->
    Alcotest.(check string)
      "same mapping as exact pinned values"
      (Format.asprintf "%a" Mapping.pp baseline.I.mapping)
      (Format.asprintf "%a" Mapping.pp o.I.mapping));
  match I.run tech (perturb 0.3) sol with
  | Ok _ -> Alcotest.fail "non-integer pinned value should be rejected"
  | Error msg ->
    Alcotest.(check bool) "error names the pinned factor" true
      (String.length msg >= 25 && String.sub msg 0 25 = "integerize: pinned factor")

(* The per-dim candidate budget is the largest b with b^dims <= max;
   the old float pow round-trip undercounted exact roots (4096^(1/3)
   evaluating to 15.999... gave 15, quartering a 3-dim ladder). *)
let test_per_dim_budget () =
  List.iter
    (fun (max_candidates, dims, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "budget %d^(1/%d)" max_candidates dims)
        expected
        (I.per_dim_budget ~max_candidates ~dims))
    [
      (4096, 3, 16);
      (512, 3, 8);
      (49, 2, 7);
      (48, 2, 6);
      (65536, 2, 256);
      (65536, 1, 65536);
      (65536, 0, 65536);
      (1, 5, 1);
      (0, 3, 1);
    ];
  (* Defining property on a sweep: b^dims <= max < (b+1)^dims. *)
  for max_candidates = 1 to 500 do
    for dims = 2 to 5 do
      let b = I.per_dim_budget ~max_candidates ~dims in
      let pow base = List.fold_left (fun acc _ -> acc * base) 1 (List.init dims Fun.id) in
      Alcotest.(check bool)
        (Printf.sprintf "%d^%d <= %d" b dims max_candidates)
        true
        (b >= 1 && pow b <= max_candidates);
      Alcotest.(check bool)
        (Printf.sprintf "%d^%d > %d" (b + 1) dims max_candidates)
        true
        (pow (b + 1) > max_candidates)
    done
  done

let test_infeasible_arch_errors () =
  let nest = small_conv () in
  (* A 4-register PE cannot hold the pinned 3x3 window tiles. *)
  let arch = Arch.make ~name:"tiny" ~pes:4 ~registers:4 ~sram_words:256 in
  let inst, sol = solve_first (F.Fixed arch) nest in
  match I.run tech inst sol with
  | Error _ -> ()
  | Ok o ->
    Alcotest.failf "expected failure, got energy %g"
      o.I.metrics.Accmodel.Evaluate.energy_pj

(* The candidate fold keeps the first strict improvement under
   [compare_scores]: a non-finite first score (NaN from a failed model
   evaluation) must not block the finite candidates after it — a raw
   [<] against a NaN incumbent is always false — and the first of exact
   ties wins. *)
let test_fold_skips_non_finite () =
  let fold scores =
    List.fold_left
      (fun best (i, s) ->
        if I.improves s (Option.map snd best) then Some (i, s) else best)
      None
      (List.mapi (fun i s -> (i, s)) scores)
  in
  let check name expected scores =
    Alcotest.(check (option int)) name expected (Option.map fst (fold scores))
  in
  check "nan first" (Some 2) [ Float.nan; 2.0; 1.0; 1.0 ];
  check "inf first" (Some 1) [ Float.infinity; 3.0 ];
  check "nan later" (Some 0) [ 1.0; Float.nan ];
  check "first of ties" (Some 0) [ 1.0; 1.0 ];
  check "all non-finite" (Some 0) [ Float.nan; Float.neg_infinity ];
  check "empty" None []

(* --- the candidate loop against a reference re-derivation --- *)

module Divisors = Mapspace.Divisors
module Level = Mapspace.Level
module Evaluate = Accmodel.Evaluate

(* The candidate loop of Section IV rebuilt from public API alone: each
   tileable dim's divisor ladder (SRAM, then PE, then register tile),
   ordered closest-first to the real solution and trimmed to the per-dim
   budget; their cross product with the first tileable dim outermost;
   the power-of-two architecture candidates inside the area budget; one
   canonical mapping and one full model evaluation per (mapping,
   architecture) pair; and the first-of-ties fold.  [Integerize.run]
   must return exactly this outcome, however it computes it. *)
let reference ?(n_divisors = 2) ?(n_pow2 = 2) ?(max_candidates = 65536)
    ?(min_pe_utilization = 0.0) ?(contention = false) inst sol =
  let nest = inst.F.nest in
  let dims = Nest.dim_names nest in
  let ladder d =
    let r_real = F.cumulative inst sol d ~level:0 in
    let q_real = F.cumulative inst sol d ~level:1 in
    let s_real = F.cumulative inst sol d ~level:2 in
    let closest n target = Divisors.closest n ~target ~count:n_divisors in
    let triples =
      List.concat_map
        (fun s ->
          List.concat_map
            (fun q -> List.map (fun r -> (r, q, s)) (closest q r_real))
            (closest s q_real))
        (closest (Nest.extent nest d) s_real)
    in
    let off v real = Float.abs (log (float_of_int v) -. log (Float.max 1.0 real)) in
    let distance (r, q, s) = off r r_real +. off q q_real +. off s s_real in
    List.sort_uniq compare triples
    |> List.stable_sort (fun a b -> Float.compare (distance a) (distance b))
  in
  let budget =
    I.per_dim_budget ~max_candidates ~dims:(List.length inst.F.tileable)
  in
  let ladders =
    List.map
      (fun d -> (d, List.filteri (fun i _ -> i < budget) (ladder d)))
      inst.F.tileable
  in
  let rec product = function
    | [] -> [ [] ]
    | (d, ladder) :: rest ->
      let inner = product rest in
      List.concat_map (fun t -> List.map (fun combo -> (d, t) :: combo) inner) ladder
  in
  let pinned ~level d =
    match List.assoc_opt (Level.trip_var ~level ~dim:d) inst.F.pinned with
    | Some v -> int_of_float (Float.round v)
    | None -> 1
  in
  let mapping combo =
    let at level select =
      List.map
        (fun d ->
          match List.assoc_opt d combo with
          | Some t -> (d, select t (Nest.extent nest d))
          | None -> (d, pinned ~level d))
        dims
    in
    let full perm = perm @ List.filter (fun d -> not (List.mem d perm)) dims in
    let choice = inst.F.choice in
    Mapping.canonical
      ~reg:(at 0 (fun (r, _, _) _ -> r), full [])
      ~pe:(at 1 (fun (r, q, _) _ -> q / r), full choice.Perm.pe_perm)
      ~spatial:(at 2 (fun (_, q, s) _ -> s / q))
      ~dram:(at 3 (fun (_, _, s) n -> n / s), full choice.Perm.dram_perm)
  in
  let archs spatial_size =
    match inst.F.arch_mode with
    | F.Fixed arch -> [ arch ]
    | F.Codesign { area_budget } ->
      let env = F.solution_env inst sol in
      let pow2 var = Divisors.closest_powers_of_two ~target:(env var) ~count:n_pow2 in
      let pes = Int.max 1 spatial_size in
      List.concat_map
        (fun registers ->
          List.filter_map
            (fun sram_words ->
              if Archspec.Technology.chip_area tech ~pes ~registers ~sram_words <= area_budget
              then
                Some
                  (Arch.make ~name:(Nest.name nest ^ "-codesign") ~pes ~registers
                     ~sram_words)
              else None)
            (pow2 F.var_arch_sram))
        (pow2 F.var_arch_regs)
  in
  let tried = ref 0 and valid = ref 0 and best = ref None in
  List.iter
    (fun combo ->
      let m = mapping combo in
      let spatial_size = Mapping.spatial_size m in
      List.iter
        (fun arch ->
          incr tried;
          let utilization = float_of_int spatial_size /. float_of_int arch.Arch.pe_count in
          if not (utilization < min_pe_utilization) then
            match Evaluate.evaluate ~comm:inst.F.comm ~contention tech arch nest m with
            | Error _ -> ()
            | Ok metrics ->
              incr valid;
              let s = I.score inst.F.objective metrics in
              if I.improves s (Option.map (fun (s', _, _, _) -> s') !best) then
                best := Some (s, arch, m, metrics))
        (archs spatial_size))
    (product ladders);
  match !best with
  | None -> Error "integerize: no feasible integer candidate"
  | Some (_, arch, mapping, metrics) ->
    Ok
      {
        I.arch;
        mapping;
        metrics;
        choice = inst.F.choice;
        continuous_objective = sol.Gp.Solver.objective;
        candidates_tried = !tried;
        candidates_valid = !valid;
      }

let describe = function
  | Error msg -> msg
  | Ok o ->
    Format.asprintf "%s tried=%d valid=%d@.%a@.%a" o.I.arch.Arch.arch_name
      o.I.candidates_tried o.I.candidates_valid Mapping.pp o.I.mapping Evaluate.pp
      o.I.metrics

(* Six small convs: 3x3 and 5x5 windows, stride 1 and 2, a 1x1, and an
   odd-extent layer whose ladders are short. *)
let reference_layers =
  List.map Workload.Conv.to_nest
    [
      Workload.Conv.make ~name:"c3" ~k:16 ~c:16 ~hw:16 ~rs:3 ();
      Workload.Conv.make ~name:"c1s2" ~k:16 ~c:8 ~hw:16 ~rs:1 ~stride:2 ();
      Workload.Conv.make ~name:"pw" ~k:32 ~c:16 ~hw:8 ~rs:1 ();
      Workload.Conv.make ~name:"c3s2" ~k:8 ~c:4 ~hw:14 ~rs:3 ~stride:2 ();
      Workload.Conv.make ~name:"c5" ~k:12 ~c:6 ~hw:10 ~rs:5 ();
      Workload.Conv.make ~name:"odd" ~k:9 ~c:15 ~hw:7 ~rs:3 ();
    ]

let reference_arch = Arch.make ~name:"small" ~pes:64 ~registers:64 ~sram_words:4096

let reference_modes =
  [ F.Fixed reference_arch; F.Codesign { area_budget = Arch.area tech reference_arch } ]

let reference_objectives = [ F.Energy; F.Delay; F.Edp ]

(* Comm lowering and scoring: the aggregate model, the per-link model,
   and the per-link model with the DRAM/NoC channels contended. *)
let reference_comms =
  [
    (Archspec.Link.Overlapped, false);
    (Archspec.Link.Comm_aware, false);
    (Archspec.Link.Comm_aware, true);
  ]

(* GP solutions are shared across the scoring-only knobs (contention,
   utilization floor) and the perturbation property. *)
let reference_instance =
  let cache = Hashtbl.create 64 in
  fun li mi oi comm ->
    let key = (li, mi, oi, comm) in
    match Hashtbl.find_opt cache key with
    | Some v -> v
    | None ->
      let nest = List.nth reference_layers li in
      let plan = Perm.enumerate ~max_choices:4 nest in
      let choice = List.nth plan.Perm.choices (li mod List.length plan.Perm.choices) in
      let placement =
        List.nth plan.Perm.placements (li mod List.length plan.Perm.placements)
      in
      let inst =
        F.build ~placement ~comm tech (List.nth reference_modes mi)
          (List.nth reference_objectives oi) plan choice
      in
      let v = (inst, Gp.Solver.solve inst.F.problem) in
      Hashtbl.replace cache key v;
      v

let check_against_reference ?max_candidates ~min_pe_utilization ~contention label inst sol =
  let expected =
    reference ?max_candidates ~min_pe_utilization ~contention inst sol
  in
  let actual = I.run ?max_candidates ~min_pe_utilization ~contention tech inst sol in
  if expected <> actual then
    Alcotest.failf "%s: Integerize.run differs from the reference@.expected %s@.got %s"
      label (describe expected) (describe actual)

(* Every layer x architecture mode x objective x comm variant x
   utilization floor, at a tight candidate budget (4 ladder rungs per
   dim) so the reference's per-candidate model evaluations stay cheap. *)
let test_matches_reference () =
  List.iteri
    (fun li nest ->
      List.iteri
        (fun mi _ ->
          List.iteri
            (fun oi _ ->
              List.iter
                (fun (comm, contention) ->
                  let inst, sol = reference_instance li mi oi comm in
                  List.iter
                    (fun min_pe_utilization ->
                      let label =
                        Printf.sprintf "%s mode %d objective %d %s%s util %.1f"
                          (Nest.name nest) mi oi
                          (Archspec.Link.comm_model_name comm)
                          (if contention then "+contention" else "")
                          min_pe_utilization
                      in
                      check_against_reference ~max_candidates:256 ~min_pe_utilization
                        ~contention label inst sol)
                    [ 0.0; 0.5 ])
                reference_comms)
            reference_objectives)
        reference_modes)
    reference_layers

(* Off-optimum design points: the solver's values scaled by up to e^1.5
   either way move the ladders, the architecture candidates and which
   capacity binds.  Half the draws run at the default candidate budget
   (whole ladders), the rest at the matrix's tight one. *)
let prop_perturbed_matches_reference =
  let open QCheck2.Gen in
  let gen =
    tup6 (int_bound (List.length reference_layers - 1)) (int_bound 1) (int_bound 2)
      (int_bound 2) bool (int_bound 100_000)
  in
  QCheck2.Test.make ~name:"perturbed solutions match the reference" ~count:40 gen
    (fun (li, mi, oi, ci, util, seed) ->
      let comm, contention = List.nth reference_comms ci in
      let inst, sol = reference_instance li mi oi comm in
      let rng = Random.State.make [| seed |] in
      let values =
        List.map
          (fun (x, v) -> (x, v *. exp (Random.State.float rng 3.0 -. 1.5)))
          sol.Gp.Solver.values
      in
      let sol = { sol with Gp.Solver.values } in
      let max_candidates = if seed mod 2 = 0 then None else Some 256 in
      let min_pe_utilization = if util then 0.5 else 0.0 in
      check_against_reference ?max_candidates ~min_pe_utilization ~contention
        (Printf.sprintf "perturbed seed %d" seed) inst sol;
      true)

let () =
  Alcotest.run "integerize"
    [
      ( "outcomes",
        [
          Alcotest.test_case "fixed-arch outcome valid" `Quick test_fixed_outcome_valid;
          Alcotest.test_case "integer close to continuous" `Quick
            test_integer_close_to_continuous;
          Alcotest.test_case "codesign area respected" `Quick test_codesign_area_respected;
          Alcotest.test_case "delay scoring" `Quick test_delay_scoring;
          Alcotest.test_case "ladder width monotone" `Quick test_ladder_width_monotone;
          Alcotest.test_case "utilization filter" `Quick test_utilization_filter;
          Alcotest.test_case "pinned rounding" `Quick test_pinned_rounding;
          Alcotest.test_case "per-dim budget" `Quick test_per_dim_budget;
          Alcotest.test_case "infeasible arch errors" `Quick test_infeasible_arch_errors;
          Alcotest.test_case "fold skips non-finite" `Quick test_fold_skips_non_finite;
        ] );
      ( "reference",
        [
          Alcotest.test_case "matches the reference loop" `Quick test_matches_reference;
          QCheck_alcotest.to_alcotest prop_perturbed_matches_reference;
        ] );
    ]
