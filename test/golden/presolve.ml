(* Presolve bits.

   Runs Analysis.Presolve.analyze on every (choice, placement) program
   of resnet-2 and yolo-7 at [max_choices] 8 and prints its whole
   result with every float as an exact hex float: the verdict, both
   endpoints of every box variable, and then either the dropped
   constraints with their certified bounds and the size of the reduced
   program, or the proof's steps and its culprit bound.

   Settings: Eyeriss under Energy, under Delay with the comm-aware and
   with the overlapped delay model, and under EDP; the capacity-starved
   edge architecture under Delay, which has pruned pairs; and co-design
   at the Eyeriss area.

   Proof bounds reach the report's pruned pairs and the reduced program
   reaches the solver, so a presolve change must keep these bits.  Captured before
   presolve moved onto its index-based lowering.

   Usage: presolve.exe *)

module F = Thistle.Formulate
module Perm = Thistle.Permutations
module Ps = Analysis.Presolve
module Iv = Analysis.Interval
module Arch = Archspec.Arch
module Link = Archspec.Link

let tech =
  Archspec.Technology.scale_to_node Archspec.Technology.table3
    ~node_nm:Archspec.Technology.reference_node_nm

let eyeriss = Arch.make ~name:"cli" ~pes:168 ~registers:512 ~sram_words:65536
let edge = Arch.make ~name:"cli" ~pes:32 ~registers:16 ~sram_words:4096

let settings =
  [
    ("eyeriss energy", F.Fixed eyeriss, F.Energy, Link.Comm_aware);
    ("eyeriss delay comm-aware", F.Fixed eyeriss, F.Delay, Link.Comm_aware);
    ("eyeriss delay overlapped", F.Fixed eyeriss, F.Delay, Link.Overlapped);
    ("eyeriss edp", F.Fixed eyeriss, F.Edp, Link.Comm_aware);
    ("edge delay", F.Fixed edge, F.Delay, Link.Comm_aware);
    ("codesign energy", F.Codesign { area_budget = Arch.eyeriss_area tech }, F.Energy,
     Link.Comm_aware);
  ]

let layers = [ "resnet-2"; "yolo-7" ]

let side_name = function Ps.Lo -> "lo" | Ps.Hi -> "hi"

let kind_name = function
  | Ps.Ineq_low -> "ineq-low"
  | Ps.Eq_low -> "eq-low"
  | Ps.Eq_high -> "eq-high"

let print (t : Ps.t) =
  List.iter
    (fun (x, i) -> Printf.printf "  box %s %h %h\n" x i.Iv.lo i.Iv.hi)
    t.Ps.box;
  match t.Ps.verdict with
  | Ps.Feasible red ->
    List.iter (fun (c, v) -> Printf.printf "  dropped %s %h\n" c v) red.Ps.dropped;
    Printf.printf "  reduced ineqs=%d eqs=%d vars=%d\n"
      (List.length (Gp.Problem.ineqs red.Ps.reduced))
      (List.length (Gp.Problem.eqs red.Ps.reduced))
      (List.length (Gp.Problem.variables red.Ps.reduced))
  | Ps.Infeasible proof ->
    List.iter
      (fun (s : Ps.step) ->
        Printf.printf "  step %s %s %h via %s\n" s.Ps.var (side_name s.Ps.side) s.Ps.bound
          s.Ps.via)
      proof.Ps.steps;
    Printf.printf "  culprit %s %s %h\n" proof.Ps.culprit (kind_name proof.Ps.kind)
      proof.Ps.bound

let () =
  List.iter
    (fun (name, mode, objective, comm) ->
      Printf.printf "== %s\n" name;
      List.iter
        (fun layer ->
          let nest = Workload.Conv.to_nest (Workload.Zoo.find layer) in
          let plan = Perm.enumerate ~max_choices:8 nest in
          List.iteri
            (fun c choice ->
              List.iteri
                (fun p placement ->
                  let problem =
                    (F.build ~placement ~comm tech mode objective plan choice).F.problem
                  in
                  let t = Ps.analyze problem in
                  Printf.printf "%s choice %d placement %d: %s\n" layer c p
                    (match t.Ps.verdict with
                    | Ps.Feasible _ -> "feasible"
                    | Ps.Infeasible _ -> "infeasible");
                  print t)
                plan.Perm.placements)
            plan.Perm.choices)
        layers)
    settings
