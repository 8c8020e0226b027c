(* Tests for the GP formulation: constraint structure, feasibility of the
   solved programs, and agreement between the symbolic objective and the
   model's accounting at matched points. *)

module F = Thistle.Formulate
module Perm = Thistle.Permutations
module M = Symexpr.Monomial
module P = Symexpr.Posynomial
module Tech = Archspec.Technology
module Arch = Archspec.Arch

let tech = Tech.table3

let small_conv () =
  Workload.Conv.to_nest (Workload.Conv.make ~name:"small" ~k:16 ~c:16 ~hw:16 ~rs:3 ())

let first_choice plan = List.hd plan.Perm.choices

let test_fixed_arch_constraints () =
  let nest = small_conv () in
  let plan = Perm.enumerate nest in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let inst = F.build ~comm:Archspec.Link.Overlapped tech (F.Fixed arch) F.Energy plan (first_choice plan) in
  let names = List.map fst (Gp.Problem.ineqs inst.F.problem) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "has %s" expected)
        true (List.mem expected names))
    [ "reg-capacity"; "sram-capacity"; "pe-count"; "bound:t0.k"; "bound:t3.w" ];
  Alcotest.(check bool) "no area constraint" true (not (List.mem "area" names));
  (* One extent equality per tileable dim. *)
  Alcotest.(check int)
    "extent equalities" 4
    (List.length (Gp.Problem.eqs inst.F.problem));
  (* Pinned window variables must not appear in the program. *)
  let vars = Gp.Problem.variables inst.F.problem in
  Alcotest.(check bool) "t0.r eliminated" true (not (List.mem "t0.r" vars));
  Alcotest.(check bool) "t0.k free" true (List.mem "t0.k" vars)

let test_codesign_constraints () =
  let nest = small_conv () in
  let plan = Perm.enumerate nest in
  let inst = F.build ~comm:Archspec.Link.Overlapped tech (F.Codesign { area_budget = 1e6 }) F.Energy plan (first_choice plan) in
  let names = List.map fst (Gp.Problem.ineqs inst.F.problem) in
  Alcotest.(check bool) "has area" true (List.mem "area" names);
  let vars = Gp.Problem.variables inst.F.problem in
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "has %s" v) true (List.mem v vars))
    [ F.var_arch_regs; F.var_arch_sram; F.var_arch_pes ]

let test_delay_constraints () =
  let nest = small_conv () in
  let plan = Perm.enumerate nest in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let inst = F.build ~comm:Archspec.Link.Overlapped tech (F.Fixed arch) F.Delay plan (first_choice plan) in
  let names = List.map fst (Gp.Problem.ineqs inst.F.problem) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "has %s" expected)
        true (List.mem expected names))
    [ "delay-compute"; "delay-sram"; "delay-dram" ];
  Alcotest.(check bool)
    "objective is T" true
    (P.equal (Gp.Problem.objective inst.F.problem) (P.var F.var_delay))

let test_edp_constraints () =
  let nest = small_conv () in
  let plan = Perm.enumerate nest in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let inst = F.build ~comm:Archspec.Link.Overlapped tech (F.Fixed arch) F.Edp plan (first_choice plan) in
  let names = List.map fst (Gp.Problem.ineqs inst.F.problem) in
  Alcotest.(check bool) "has delay epigraph" true (List.mem "delay-compute" names);
  (* The objective mentions both the epigraph variable and energy terms. *)
  let obj_vars = P.variables (Gp.Problem.objective inst.F.problem) in
  Alcotest.(check bool) "objective mentions T" true (List.mem F.var_delay obj_vars);
  Alcotest.(check bool)
    "objective has several terms" true
    (P.num_terms (Gp.Problem.objective inst.F.problem) > 1);
  (* And it solves. *)
  let sol = Gp.Solver.solve inst.F.problem in
  Alcotest.(check bool)
    "solved" true
    (match sol.Gp.Solver.status with Gp.Solver.Infeasible -> false | _ -> true)

let test_window_placements () =
  let nest = small_conv () in
  let plan = Perm.enumerate nest in
  (* Two window dims (r, s), two homes each: four placements. *)
  Alcotest.(check int) "4 placements" 4 (List.length plan.Perm.placements);
  Alcotest.(check bool)
    "default is first" true
    (List.hd plan.Perm.placements = plan.Perm.pinned);
  (* One placement puts both windows on the PE array. *)
  let spatial_both =
    List.exists
      (fun placement ->
        List.assoc_opt "t2.r" placement = Some 3.0
        && List.assoc_opt "t2.s" placement = Some 3.0)
      plan.Perm.placements
  in
  Alcotest.(check bool) "spatial r and s available" true spatial_both;
  (* A spatial placement contributes its factor to the PE-count bound. *)
  let placement =
    List.find (fun p -> List.assoc_opt "t2.r" p = Some 3.0) plan.Perm.placements
  in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let inst = F.build ~placement ~comm:Archspec.Link.Overlapped tech (F.Fixed arch) F.Energy plan (first_choice plan) in
  let pe_constraint = List.assoc "pe-count" (Gp.Problem.ineqs inst.F.problem) in
  (* At the all-ones point the constraint value is 3*3/64 or 3/64. *)
  let v = P.eval (fun _ -> 1.0) pe_constraint in
  Alcotest.(check bool)
    (Printf.sprintf "pinned spatial factor present (%g)" v)
    true
    (v >= 3.0 /. 64.0 -. 1e-9);
  (* 1x1 convolutions have no window dims and exactly one placement. *)
  let one_by_one =
    Workload.Conv.to_nest (Workload.Conv.make ~name:"p" ~k:8 ~c:8 ~hw:8 ~rs:1 ())
  in
  let plan1 = Perm.enumerate one_by_one in
  Alcotest.(check int) "single placement" 1 (List.length plan1.Perm.placements)

(* The solved program must be feasible and its solution must satisfy the
   trip-count equalities. *)
let test_solution_feasible () =
  let nest = small_conv () in
  let plan = Perm.enumerate nest in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let inst = F.build ~comm:Archspec.Link.Overlapped tech (F.Fixed arch) F.Energy plan (first_choice plan) in
  let sol = Gp.Solver.solve inst.F.problem in
  Alcotest.(check bool)
    "solved" true
    (match sol.Gp.Solver.status with Gp.Solver.Infeasible -> false | _ -> true);
  Alcotest.(check bool)
    "feasible" true
    (Gp.Problem.is_feasible ~tol:1e-4 inst.F.problem (Gp.Solver.env sol));
  List.iter
    (fun d ->
      let product = F.cumulative inst sol d ~level:3 in
      let expected = float_of_int (Workload.Nest.extent nest d) in
      Alcotest.(check bool)
        (Printf.sprintf "extent %s: %g vs %g" d product expected)
        true
        (Float.abs (product -. expected) /. expected < 1e-3))
    inst.F.tileable

(* The lookup table answers every name as the pinned list, then the
   solved values, then 1.0 would: a pinned value wins over a solved one
   and a name's first binding wins. *)
let test_solution_env_lookup () =
  let nest = small_conv () in
  let plan = Perm.enumerate nest in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let inst = F.build ~comm:Archspec.Link.Overlapped tech (F.Fixed arch) F.Energy plan (first_choice plan) in
  let pinned_name, pinned_value = List.hd inst.F.pinned in
  let values =
    [ ("t0.k", 2.0); (pinned_name, pinned_value +. 1.0); ("t0.k", 3.0); ("extra", 5.0) ]
  in
  let sol = { Gp.Solver.status = Gp.Solver.Optimal; objective = 1.0; values } in
  let reference var =
    match List.assoc_opt var inst.F.pinned with
    | Some v -> v
    | None -> ( match List.assoc_opt var values with Some v -> v | None -> 1.0)
  in
  let env = F.solution_env inst sol in
  List.iter
    (fun var -> Alcotest.(check (float 0.0)) var (reference var) (env var))
    ("absent" :: List.map fst values @ List.map fst inst.F.pinned)

(* At matched variable assignments, the GP's energy objective must equal
   the accounting formula evaluated on the relaxed volumes: check the GP
   objective against an independent recomputation from the analysis. *)
let test_objective_matches_accounting () =
  let nest = small_conv () in
  let plan = Perm.enumerate nest in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let inst = F.build ~comm:Archspec.Link.Overlapped tech (F.Fixed arch) F.Energy plan (first_choice plan) in
  let sol = Gp.Solver.solve inst.F.problem in
  let env = F.solution_env inst sol in
  let eps_r = Arch.register_energy tech arch in
  let eps_s = Arch.sram_energy tech arch in
  let relaxed select rw_only =
    List.fold_left
      (fun acc tv ->
        if rw_only && not tv.Thistle.Volume.read_write then acc
        else acc +. P.eval env (Thistle.Volume.volume_posynomial (select tv)))
      0.0 inst.F.analysis.Thistle.Volume.per_tensor
  in
  let s2r = relaxed (fun tv -> tv.Thistle.Volume.sram_to_reg) false in
  let r2s = relaxed (fun tv -> tv.Thistle.Volume.sram_to_reg) true in
  let d2s = relaxed (fun tv -> tv.Thistle.Volume.dram_to_sram) false in
  let s2d = relaxed (fun tv -> tv.Thistle.Volume.dram_to_sram) true in
  let macs = Workload.Nest.ops nest in
  let expected =
    (((4.0 *. eps_r) +. tech.Tech.energy_mac) *. macs)
    +. (eps_r *. (s2r +. r2s))
    +. (eps_s *. (s2r +. r2s +. d2s +. s2d))
    +. (tech.Tech.energy_dram *. (d2s +. s2d))
  in
  let actual = P.eval env (Gp.Problem.objective inst.F.problem) in
  Alcotest.(check bool)
    (Printf.sprintf "objective %g vs %g" actual expected)
    true
    (Float.abs (actual -. expected) /. expected < 1e-9)

(* Co-design at a generous budget can only improve on any fixed
   architecture inside the budget (continuous relaxation). *)
let test_codesign_dominates_fixed () =
  let nest = small_conv () in
  let plan = Perm.enumerate nest in
  let choice = first_choice plan in
  let arch = Arch.make ~name:"a" ~pes:64 ~registers:64 ~sram_words:4096 in
  let budget = Arch.area tech arch *. 2.0 in
  let fixed = F.build ~comm:Archspec.Link.Overlapped tech (F.Fixed arch) F.Energy plan choice in
  let codesign = F.build ~comm:Archspec.Link.Overlapped tech (F.Codesign { area_budget = budget }) F.Energy plan choice in
  let sol_fixed = Gp.Solver.solve fixed.F.problem in
  let sol_codesign = Gp.Solver.solve codesign.F.problem in
  Alcotest.(check bool)
    (Printf.sprintf "codesign %g <= fixed %g" sol_codesign.Gp.Solver.objective
       sol_fixed.Gp.Solver.objective)
    true
    (sol_codesign.Gp.Solver.objective <= sol_fixed.Gp.Solver.objective *. 1.001)

let () =
  Alcotest.run "formulate"
    [
      ( "structure",
        [
          Alcotest.test_case "fixed-arch constraints" `Quick test_fixed_arch_constraints;
          Alcotest.test_case "codesign constraints" `Quick test_codesign_constraints;
          Alcotest.test_case "delay constraints" `Quick test_delay_constraints;
          Alcotest.test_case "edp constraints" `Quick test_edp_constraints;
          Alcotest.test_case "window placements" `Quick test_window_placements;
        ] );
      ( "solutions",
        [
          Alcotest.test_case "feasible" `Quick test_solution_feasible;
          Alcotest.test_case "objective accounting" `Quick test_objective_matches_accounting;
          Alcotest.test_case "solution env lookup" `Quick test_solution_env_lookup;
          Alcotest.test_case "codesign dominates fixed" `Quick test_codesign_dominates_fixed;
        ] );
    ]
