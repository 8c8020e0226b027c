(* Solver-path benchmark, two tiers:

   1. End-to-end: the compiled evaluation kernel + structured KKT +
      sweep reuse (the current defaults) against the legacy
      list-of-closures path through the whole optimizer, plus the
      presolve scenario on a capacity-starved edge architecture.

   2. Scenario x kernel matrix: the solver alone (the list reference
      and the default compiled kernel) over the formulated (choice,
      placement) problem set of each scenario, formulation excluded
      from the timed region so the cells measure solver work.  Every
      default solve must reach the list solve's status and objective
      within tolerance, or the bench fails.  Each scenario then times
      the integerize stage alone over its three best solved pairs; every
      outcome's metrics must equal the model's evaluation of its design,
      or the bench fails.

   Emits BENCH_solver.json (flat one-level object; format documented in
   README.md) so the perf trajectory has a recorded baseline —
   tools/perfdiff.sh diffs two such files and fails on regression.

   Usage:
     dune exec bench/solver.exe                         # zoo subset, repeat 2
     dune exec bench/solver.exe -- --layers resnet-2 --repeat 3
     dune exec bench/solver.exe -- --max-choices 4 --out /tmp/b.json
     dune exec bench/solver.exe -- --smoke              # tiny CI smoke run *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module Permutations = Thistle.Permutations
module Arch = Archspec.Arch
module Conv = Workload.Conv
module Json = Obs.Json

let tech = Archspec.Technology.table3

type options = {
  layers : string list;
  repeat : int;
  max_choices : int;
  out : string;
  smoke : bool;
}

let parse_args () =
  let layers = ref [ "resnet-2"; "resnet-8"; "yolo-2" ] in
  let repeat = ref 2 in
  let max_choices = ref O.default_config.O.max_choices in
  let out = ref "BENCH_solver.json" in
  let smoke = ref false in
  let int_arg flag s =
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ ->
      Printf.eprintf "%s: invalid value %S, expected a positive integer\n" flag s;
      exit 2
  in
  let rec go = function
    | [] -> ()
    | "--layers" :: spec :: rest ->
      layers := String.split_on_char ',' spec;
      go rest
    | "--repeat" :: n :: rest ->
      repeat := int_arg "--repeat" n;
      go rest
    | "--max-choices" :: n :: rest ->
      max_choices := int_arg "--max-choices" n;
      go rest
    | "--out" :: file :: rest ->
      out := file;
      go rest
    | "--smoke" :: rest ->
      (* One small layer, shallow sweep: a seconds-scale sanity run for
         the @bench / @comm aliases, not a measurement. *)
      layers := [ "resnet-2" ];
      repeat := 1;
      max_choices := 4;
      smoke := true;
      go rest
    | arg :: _ ->
      Printf.eprintf
        "unknown argument %s (expected --layers N,N,..., --repeat N, --max-choices N, \
         --out FILE, --smoke)\n"
        arg;
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  {
    layers = !layers;
    repeat = !repeat;
    max_choices = !max_choices;
    out = !out;
    smoke = !smoke;
  }

type measurement = {
  wall_s : float;  (** best over repeats, whole layer set *)
  wall_mean_s : float;  (** mean over repeats *)
  solves : int;  (** logical GP solves (replayed duplicates included) *)
  newton_steps : int;
  objective_sum : float;  (** sum of best continuous objectives, sanity *)
  pruned : int;  (** pairs skipped by presolve (0 with presolve off) *)
}

(* Min AND mean wall over [repeat] runs of [pass]: the min is the
   least-noise estimate perfdiff keys on, the mean exposes variance a
   lucky min would hide. *)
let time_repeats ~repeat pass =
  let rec loop k best sum acc_last =
    if k = 0 then (Option.get best, sum /. float_of_int repeat, Option.get acc_last)
    else begin
      let t0 = Unix.gettimeofday () in
      let acc = pass () in
      let dt = Unix.gettimeofday () -. t0 in
      let best =
        match best with Some b when b <= dt -> best | _ -> Some dt
      in
      loop (k - 1) best (sum +. dt) (Some acc)
    end
  in
  loop repeat None 0.0 None

let measure ?(arch = Arch.eyeriss) ?(tech = tech) ?(objective = F.Energy) options
    config nests =
  let one_pass () =
    List.fold_left
      (fun (solves, newton, obj, pruned) (name, nest) ->
        match O.dataflow ~config tech arch objective nest with
        | Ok r ->
          let t = r.O.solve_totals in
          ( solves + t.Gp.Solver.solves,
            newton + t.Gp.Solver.t_newton_iters,
            obj +. r.O.best_continuous,
            pruned + List.length r.O.pruned )
        | Error msg ->
          Printf.eprintf "warning: %s failed: %s\n" name msg;
          (solves, newton, obj, pruned))
      (0, 0, 0.0, 0) nests
  in
  let wall_s, wall_mean_s, (solves, newton_steps, objective_sum, pruned) =
    time_repeats ~repeat:options.repeat one_pass
  in
  { wall_s; wall_mean_s; solves; newton_steps; objective_sum; pruned }

(* --- scenario x kernel matrix over the bare solver --- *)

type cell = {
  c_wall_s : float;
  c_wall_mean_s : float;
  c_solves : int;
  c_solutions : Gp.Solver.solution list;  (** last repeat, for cross-checks *)
}

(* The (choice, placement) instance set of one scenario: every pair the
   optimizer's sweep formulates, duplicates included, as [F.build]
   returns it.  The sweep hands the solver presolve-reduced programs and
   warm-starts each placement from its choice's pinned solve; here every
   program is solved as formulated, from the cold least-norm start. *)
let scenario_instances ~max_choices mode nest =
  let plan = Permutations.enumerate ~max_choices nest in
  List.concat_map
    (fun cv ->
      List.map
        (fun placement -> F.build ~placement tech mode F.Energy plan cv)
        plan.Permutations.placements)
    plan.Permutations.choices

let status_name = function
  | Gp.Solver.Optimal -> "optimal"
  | Gp.Solver.Infeasible -> "infeasible"
  | Gp.Solver.Iteration_limit -> "iteration-limit"
  | Gp.Solver.Deadline_exceeded -> "deadline-exceeded"

let scalar_cell ~repeat ~kernel problems =
  let pass () =
    List.map (fun p -> Gp.Solver.solve ~kernel p) problems
  in
  let c_wall_s, c_wall_mean_s, c_solutions = time_repeats ~repeat pass in
  { c_wall_s; c_wall_mean_s; c_solves = List.length problems; c_solutions }

(* The default kernel agrees with the list reference to solver
   tolerance: same status, and the same objective within 1e-5 relative.
   Well-conditioned scenarios agree to ~1e-8; on the capacity-starved
   edge scenario both kernels report [Optimal] yet stop up to 4e-6
   apart, because the line search stalls near the optimum of those
   ill-conditioned programs.  A drifting cell means a solver bug, so
   fail loudly rather than record a meaningless speedup. *)
let check_agrees ~scenario reference candidate =
  List.iter2
    (fun (a : Gp.Solver.solution) (b : Gp.Solver.solution) ->
      let objective_ok =
        match a.Gp.Solver.status with
        | Gp.Solver.Optimal | Gp.Solver.Iteration_limit ->
          Float.abs (a.Gp.Solver.objective -. b.Gp.Solver.objective)
          <= 1e-5 *. (1.0 +. Float.abs a.Gp.Solver.objective)
        | Gp.Solver.Infeasible | Gp.Solver.Deadline_exceeded -> true
      in
      if a.Gp.Solver.status <> b.Gp.Solver.status || not objective_ok then begin
        Printf.eprintf
          "FATAL: %s: default solution disagrees with the list reference (status \
           %s vs %s, objective %.17g vs %.17g)\n"
          scenario (status_name b.Gp.Solver.status) (status_name a.Gp.Solver.status)
          b.Gp.Solver.objective a.Gp.Solver.objective;
        exit 1
      end)
    reference.c_solutions candidate.c_solutions

type integerize_cell = {
  i_wall_s : float;
  i_wall_mean_s : float;
  i_pairs : int;
  i_candidates : int;  (** candidates tried, summed over the pairs *)
}

(* The integerize stage alone: [Integerize.run] over the scenario's
   shortlist — its [top_choices] best usable solved pairs, as the
   optimizer ranks them — under the default configuration, best of
   [repeat].  The reported metrics of every outcome must be exactly the
   model's evaluation of its (architecture, mapping): the candidate loop
   scores on a compiled kernel and evaluates only the winner in full, so
   a kernel that drifted from [Evaluate.evaluate] fails here. *)
let integerize_cell ~repeat ~scenario instances solutions =
  let config = O.default_config in
  let shortlist =
    List.combine instances solutions
    |> List.filter (fun (inst, sol) -> O.usable_solution inst sol)
    |> List.stable_sort (fun (_, (a : Gp.Solver.solution)) (_, b) ->
           O.compare_scores a.Gp.Solver.objective b.Gp.Solver.objective)
    |> List.filteri (fun i _ -> i < config.O.top_choices)
  in
  let pass () =
    List.map
      (fun (inst, sol) ->
        ( inst,
          I.run ~n_divisors:config.O.n_divisors ~n_pow2:config.O.n_pow2
            ~min_pe_utilization:config.O.min_pe_utilization
            ~contention:config.O.contention tech inst sol ))
      shortlist
  in
  let i_wall_s, i_wall_mean_s, outcomes = time_repeats ~repeat pass in
  let i_candidates =
    List.fold_left
      (fun acc (inst, r) ->
        match r with
        | Error msg ->
          Printf.eprintf "warning: %s: integerize failed on %s: %s\n" scenario
            inst.F.provenance msg;
          acc
        | Ok o ->
          let model =
            Accmodel.Evaluate.evaluate ~comm:inst.F.comm ~contention:config.O.contention
              tech o.I.arch inst.F.nest o.I.mapping
          in
          if model <> Ok o.I.metrics then begin
            Printf.eprintf
              "FATAL: %s: integerize metrics of %s differ from the model's evaluation \
               of its design\n"
              scenario inst.F.provenance;
            exit 1
          end;
          acc + o.I.candidates_tried)
      0 outcomes
  in
  { i_wall_s; i_wall_mean_s; i_pairs = List.length shortlist; i_candidates }

let () =
  let options = parse_args () in
  let nests =
    List.map
      (fun name ->
        match Workload.Zoo.find name with
        | layer -> (name, Conv.to_nest layer)
        | exception Not_found ->
          Printf.eprintf "unknown layer %S; see `thistle layers'\n" name;
          exit 2)
      options.layers
  in
  let base =
    { O.default_config with O.jobs = 1; max_choices = options.max_choices }
  in
  (* The pre-PR solver path: closure-per-function evaluation, dense LU
     KKT, no reuse across the sweep. *)
  let list_config =
    { base with O.gp_kernel = `List; dedupe = false; warm_start = false }
  in
  Printf.printf "solver bench: layers %s, max-choices %d, jobs 1, best of %d run(s)\n"
    (String.concat "," options.layers)
    options.max_choices options.repeat;
  Printf.printf "%-9s %9s %8s %13s %10s\n" "path" "wall s" "solves" "newton steps"
    "solves/s";
  let show label (m : measurement) =
    Printf.printf "%-9s %9.3f %8d %13d %10.1f\n%!" label m.wall_s m.solves
      m.newton_steps
      (float_of_int m.solves /. m.wall_s)
  in
  let listed = measure options list_config nests in
  show "list" listed;
  let compiled = measure options base nests in
  show "compiled" compiled;
  let speedup = listed.wall_s /. compiled.wall_s in
  Printf.printf "speedup: %.2fx\n" speedup;
  (* Presolve scenario: a capacity-starved edge accelerator where many
     (choice, placement) pairs are statically infeasible, so interval
     pruning skips whole solves.  The roomy Eyeriss runs above prune
     nothing — this is the workload the analysis pays off on. *)
  let edge = Arch.make ~name:"edge" ~pes:32 ~registers:16 ~sram_words:4096 in
  let presolve_off =
    measure ~arch:edge options
      { base with O.presolve = Analysis.Presolve.Off }
      nests
  in
  let presolve_on =
    measure ~arch:edge options
      { base with O.presolve = Analysis.Presolve.Prune }
      nests
  in
  let presolve_speedup = presolve_off.wall_s /. presolve_on.wall_s in
  Printf.printf "edge arch (P=32 R=16 S=4096), presolve off vs prune:\n";
  show "off" presolve_off;
  show "prune" presolve_on;
  Printf.printf "presolve: pruned %d pair(s), speedup %.2fx\n" presolve_on.pruned
    presolve_speedup;
  (* Communication-limited scenario (DESIGN §16): the bandwidth-starved
     edge technology point under the Delay objective, where the
     comm-aware lowering adds the per-link occupancy constraints.  Both
     lowerings run over the same layer set so the bench records what the
     richer model costs the solver. *)
  let edge_tech = Archspec.Technology.edge in
  let comm_overlapped =
    measure ~tech:edge_tech ~objective:F.Delay options
      { base with O.comm = Archspec.Link.Overlapped }
      nests
  in
  let comm_aware =
    measure ~tech:edge_tech ~objective:F.Delay options
      { base with O.comm = Archspec.Link.Comm_aware }
      nests
  in
  let comm_overhead = comm_aware.wall_s /. comm_overlapped.wall_s in
  Printf.printf
    "edge technology, delay objective: overlapped vs comm-aware lowering:\n";
  show "overlapped" comm_overlapped;
  show "comm" comm_aware;
  Printf.printf "comm-aware lowering overhead: %.2fx\n" comm_overhead;
  let drift =
    Float.abs (listed.objective_sum -. compiled.objective_sum)
    /. (1.0 +. Float.abs listed.objective_sum)
  in
  if drift > 1e-6 then
    Printf.eprintf
      "warning: continuous objectives drifted between paths (relative %.3g)\n" drift;
  (* Scenario x kernel matrix: each row is one formulated problem set,
     each column one solver kernel, timed around the bare solver.  The
     "edge" scenario reuses the starved architecture above — an
     infeasibility-heavy workload where phase I dominates; the co-design
     scenario frees the architecture under the Eyeriss area budget, the
     paper's headline problem class (arch.* variables, area row). *)
  let scenarios =
    let nest_of name = Conv.to_nest (Workload.Zoo.find name) in
    if options.smoke then [ ("resnet_2", F.Fixed Arch.eyeriss, nest_of "resnet-2") ]
    else
      [
        ("resnet_2", F.Fixed Arch.eyeriss, nest_of "resnet-2");
        ("resnet_8", F.Fixed Arch.eyeriss, nest_of "resnet-8");
        ("yolo_2", F.Fixed Arch.eyeriss, nest_of "yolo-2");
        ("edge", F.Fixed edge, nest_of "resnet-2");
        ( "codesign_resnet_2",
          F.Codesign { area_budget = Arch.eyeriss_area tech },
          nest_of "resnet-2" );
      ]
  in
  Printf.printf "scenario x kernel matrix (bare solver, %d repeat(s)):\n"
    options.repeat;
  Printf.printf "%-17s %-9s %9s %9s %8s %10s\n" "scenario" "kernel" "min s"
    "mean s" "solves" "solves/s";
  let show_cell scenario kernel (c : cell) =
    Printf.printf "%-17s %-9s %9.3f %9.3f %8d %10.1f\n%!" scenario kernel
      c.c_wall_s c.c_wall_mean_s c.c_solves
      (float_of_int c.c_solves /. c.c_wall_s)
  in
  let matrix =
    List.map
      (fun (scenario, mode, nest) ->
        let instances =
          scenario_instances ~max_choices:options.max_choices mode nest
        in
        let problems = List.map (fun inst -> inst.F.problem) instances in
        let cl = scalar_cell ~repeat:options.repeat ~kernel:`List problems in
        show_cell scenario "list" cl;
        let cc = scalar_cell ~repeat:options.repeat ~kernel:`Compiled problems in
        show_cell scenario "compiled" cc;
        check_agrees ~scenario cl cc;
        Printf.printf "%-17s compiled speedup %.2fx over list\n%!" scenario
          (cl.c_wall_s /. cc.c_wall_s);
        let ic =
          integerize_cell ~repeat:options.repeat ~scenario instances cc.c_solutions
        in
        Printf.printf "%-17s integerize %6.3f %9.3f %8d pair(s), %d candidates\n%!"
          scenario ic.i_wall_s ic.i_wall_mean_s ic.i_pairs ic.i_candidates;
        (scenario, cl, cc, ic))
      scenarios
  in
  let buf = Buffer.create 2048 in
  let f name v = Json.field name (Json.float v) in
  let i name v = Json.field name (Json.int v) in
  let s name v = Json.field name (Json.str v) in
  let cell_fields scenario kernel (c : cell) =
    [
      f (Printf.sprintf "%s_%s_wall_s" scenario kernel) c.c_wall_s;
      f (Printf.sprintf "%s_%s_wall_mean_s" scenario kernel) c.c_wall_mean_s;
      f
        (Printf.sprintf "%s_%s_solves_per_s" scenario kernel)
        (float_of_int c.c_solves /. c.c_wall_s);
    ]
  in
  let integerize_fields scenario ic =
    [
      f (Printf.sprintf "%s_integerize_wall_s" scenario) ic.i_wall_s;
      f (Printf.sprintf "%s_integerize_wall_mean_s" scenario) ic.i_wall_mean_s;
      i (Printf.sprintf "%s_integerize_candidates" scenario) ic.i_candidates;
    ]
  in
  let matrix_fields =
    List.concat_map
      (fun (scenario, cl, cc, ic) ->
        cell_fields scenario "list" cl
        @ cell_fields scenario "compiled" cc
        @ integerize_fields scenario ic)
      matrix
  in
  Json.obj
    ([
       s "bench" "solver";
       s "layers" (String.concat "," options.layers);
       i "repeat" options.repeat;
       i "max_choices" options.max_choices;
       f "list_wall_s" listed.wall_s;
       f "list_wall_mean_s" listed.wall_mean_s;
       i "list_solves" listed.solves;
       i "list_newton_steps" listed.newton_steps;
       f "list_solves_per_s" (float_of_int listed.solves /. listed.wall_s);
       f "compiled_wall_s" compiled.wall_s;
       f "compiled_wall_mean_s" compiled.wall_mean_s;
       i "compiled_solves" compiled.solves;
       i "compiled_newton_steps" compiled.newton_steps;
       f "compiled_solves_per_s" (float_of_int compiled.solves /. compiled.wall_s);
       f "speedup" speedup;
       f "presolve_off_wall_s" presolve_off.wall_s;
       f "presolve_off_wall_mean_s" presolve_off.wall_mean_s;
       f "presolve_on_wall_s" presolve_on.wall_s;
       f "presolve_on_wall_mean_s" presolve_on.wall_mean_s;
       i "presolve_pruned" presolve_on.pruned;
       f "presolve_speedup" presolve_speedup;
       f "comm_overlapped_wall_s" comm_overlapped.wall_s;
       f "comm_overlapped_wall_mean_s" comm_overlapped.wall_mean_s;
       f "comm_overlapped_solves_per_s"
         (float_of_int comm_overlapped.solves /. comm_overlapped.wall_s);
       f "comm_aware_wall_s" comm_aware.wall_s;
       f "comm_aware_wall_mean_s" comm_aware.wall_mean_s;
       f "comm_aware_solves_per_s"
         (float_of_int comm_aware.solves /. comm_aware.wall_s);
       (* Informational ratio (no perfdiff direction): how much the
          per-link lowering costs over the aggregate one. *)
       f "comm_lowering_overhead" comm_overhead;
     ]
    @ matrix_fields)
    buf;
  Buffer.add_char buf '\n';
  let oc = open_out options.out in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote %s\n" options.out
