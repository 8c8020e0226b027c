(* Solution bits of both GP kernels.

   Solves the unreduced (choice, placement) programs of capped resnet-2
   sweeps directly with Gp.Solver, under the [`Compiled] and the [`List]
   kernel, and prints each solve's status, objective, every value as an
   exact hex float, and its telemetry.  Each program is solved three
   ways per kernel:

   - cold;
   - warm from the compiled kernel's cold solution of the choice's
     pinned placement, as the sweep's second wave starts;
   - cold with the initial KKT regularization the retry policy
     escalates to (1e-5).

   Settings: Eyeriss under Energy; Eyeriss under Delay (phase I and KKT
   regularizations); the capacity-starved edge architecture under
   Delay (an infeasible pair); and co-design at the Eyeriss area.

   Reports round their floats, and the sweep goldens solve presolved
   programs under the compiled kernel only, so this is the golden that
   pins both kernels' solve bits.

   Usage: solves.exe *)

module F = Thistle.Formulate
module Perm = Thistle.Permutations
module S = Gp.Solver
module Arch = Archspec.Arch

let tech =
  Archspec.Technology.scale_to_node Archspec.Technology.table3
    ~node_nm:Archspec.Technology.reference_node_nm

let nest = Workload.Conv.to_nest (Workload.Zoo.find "resnet-2")
let eyeriss = Arch.make ~name:"cli" ~pes:168 ~registers:512 ~sram_words:65536
let edge = Arch.make ~name:"cli" ~pes:32 ~registers:16 ~sram_words:4096

(* Name, architecture mode, objective and choice cap.  The edge sweep's
   first choice already has an infeasible pinned pair and a KKT
   regularization, and its list solves are the slowest here. *)
let settings =
  [
    ("eyeriss energy", F.Fixed eyeriss, F.Energy, 2);
    ("eyeriss delay", F.Fixed eyeriss, F.Delay, 2);
    ("edge delay", F.Fixed edge, F.Delay, 1);
    ("codesign energy", F.Codesign { area_budget = Arch.eyeriss_area tech }, F.Energy, 2);
  ]

let status_name = function
  | S.Optimal -> "optimal"
  | S.Infeasible -> "infeasible"
  | S.Iteration_limit -> "iteration-limit"
  | S.Deadline_exceeded -> "deadline-exceeded"

let print_solve label (sol : S.solution) (st : S.stats) =
  Printf.printf "%s: %s %h\n" label (status_name sol.S.status) sol.S.objective;
  Printf.printf
    "  phase1=%d phase2=%d newton=%d backtracks=%d kkt-reg=%d chol-fallback=%d gap=%h\n"
    st.S.phase1_outer st.S.phase2_outer st.S.newton_iters st.S.backtracks
    st.S.kkt_regularizations st.S.cholesky_fallbacks st.S.duality_gap;
  List.iter (fun (x, v) -> Printf.printf "  %s %h\n" x v) sol.S.values

let solve ?warm_start ?initial_reg kernel problem =
  let st = S.fresh_stats () in
  let sol =
    S.solve ~tol:Thistle.Optimize.default_config.Thistle.Optimize.gp_tol ~stats:st
      ?warm_start ?initial_reg ~kernel problem
  in
  (sol, st)

let kernels = [ ("compiled", `Compiled); ("list", `List) ]

let () =
  List.iter
    (fun (name, mode, objective, max_choices) ->
      let plan = Perm.enumerate ~max_choices nest in
      Printf.printf "== %s\n" name;
      List.iteri
        (fun c choice ->
          let build placement =
            (F.build ~placement ~comm:Archspec.Link.Comm_aware tech mode objective plan choice)
              .F.problem
          in
          let pinned, _ = solve `Compiled (build plan.Perm.pinned) in
          let warm_start =
            if pinned.S.status <> S.Infeasible && pinned.S.values <> [] then
              Some pinned.S.values
            else None
          in
          List.iteri
            (fun p placement ->
              let problem = build placement in
              List.iter
                (fun (kname, kernel) ->
                  let label start = Printf.sprintf "choice %d placement %d %s %s" c p kname start in
                  let sol, st = solve kernel problem in
                  print_solve (label "cold") sol st;
                  Option.iter
                    (fun warm ->
                      let sol, st = solve ~warm_start:warm kernel problem in
                      print_solve (label "warm") sol st)
                    warm_start;
                  let sol, st = solve ~initial_reg:1e-5 kernel problem in
                  print_solve (label "reg=1e-5") sol st)
                kernels)
            plan.Perm.placements)
        plan.Perm.choices)
    settings
