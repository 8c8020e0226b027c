type config = {
  n_divisors : int;
  n_pow2 : int;
  top_choices : int;
  max_choices : int;
  gp_tol : float;
  explore_placements : bool;
  min_pe_utilization : float;
  comm : Archspec.Link.comm_model;
  contention : bool;
  jobs : int;
  lint : Analysis.Lint.mode;
  presolve : Analysis.Presolve.mode;
  dedupe : bool;
  warm_start : bool;
  gp_kernel : Gp.Solver.kernel;
  solve_deadline_ms : float option;
  retries : int;
  inject : Robust.Inject.t;
  shard : Sweep.Partition.t;
  journal : string option;
  resume : bool;
}

let default_config =
  {
    n_divisors = 2;
    n_pow2 = 2;
    top_choices = 3;
    max_choices = 512;
    gp_tol = 1e-6;
    explore_placements = true;
    min_pe_utilization = 0.0;
    comm = Archspec.Link.Comm_aware;
    contention = false;
    jobs = Domain.recommended_domain_count ();
    lint = Analysis.Lint.Enforce;
    presolve = Analysis.Presolve.Prune;
    dedupe = true;
    warm_start = true;
    gp_kernel = `Compiled;
    solve_deadline_ms = None;
    retries = 0;
    inject = Robust.Inject.none;
    shard = Sweep.Partition.full;
    journal = None;
    resume = false;
  }

type report = {
  outcome : Integerize.outcome;
  choices_enumerated : int;
  choices_solved : int;
  best_continuous : float;
  solve_totals : Gp.Solver.totals;
  failures : Robust.failure list;
  pruned : (string * Analysis.Presolve.proof) list;
}

let log_src = Logs.Src.create "thistle.optimize" ~doc:"Thistle optimizer driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_solves = Obs.Metrics.counter "solver.solves"
let m_outer = Obs.Metrics.counter "solver.outer_iters"
let m_phase1 = Obs.Metrics.counter "solver.phase1_outer_iters"
let m_phase2 = Obs.Metrics.counter "solver.phase2_outer_iters"
let m_newton = Obs.Metrics.counter "solver.newton_steps"
let m_backtracks = Obs.Metrics.counter "solver.backtracks"
let m_kkt = Obs.Metrics.counter "solver.kkt_regularizations"
let m_warm_starts = Obs.Metrics.counter "solver.warm_starts"
let m_chol_fallbacks = Obs.Metrics.counter "solver.cholesky_fallbacks"
let g_gap = Obs.Metrics.gauge "solver.max_duality_gap"

(* Every counter below is computed once from the sweep's final pair
   table by [feed_counters] (DESIGN §9).  Fault isolation (§11): *)
let m_quarantined = Obs.Metrics.counter "robust.quarantined"

(* Presolve counters (DESIGN §9/§13): the formulate stage's verdicts
   over the sweep's pairs; [Off] leaves both at zero. *)
let m_presolve_pruned = Obs.Metrics.counter "presolve.pruned"
let m_presolve_dropped = Obs.Metrics.counter "presolve.constraints_dropped"

(* Communication-model counters (DESIGN §9/§16): per-link delay
   constraints emitted across the sweep's pairs (a function of the nest,
   the objective and [config.comm]; zero under [Overlapped] or the
   Energy objective), and shortlisted integer outcomes whose binding
   resource is a link rather than compute. *)
let m_comm_constraints = Obs.Metrics.counter "comm.delay_constraints"
let m_comm_bound = Obs.Metrics.counter "comm.comm_bound_outcomes"

let comm_constraint_names =
  [ "delay-reg"; "delay-dram-rd"; "delay-dram-wr"; "delay-noc-rd"; "delay-noc-wr" ]

let compare_scores = Integerize.compare_scores

(* Minimum of [score] over the list under [compare_scores]; exact ties
   keep the last listed (the historical fold behavior).  In particular a
   NaN-scored element can win only when every element is non-finite. *)
let select_best ~score outcomes =
  List.fold_left
    (fun acc o ->
      match acc with
      | Some o' when compare_scores (score o') (score o) < 0 -> acc
      | Some _ | None -> Some o)
    None outcomes

(* Everything that can change a pair's solve besides the problem
   itself: solver tolerance and kernel, warm starts, crash injection.
   It versions the serve store (DESIGN §14) — change any of these and
   every stored answer misses.  The leading version is bumped whenever
   the same settings compute a different served body, the [solver:]
   line's step counts included, so that an entry written by an older
   binary never replays as a hit. *)
let config_fingerprint config =
  String.concat ""
    [
      "v6|tol=";
      Obs.Json.bits config.gp_tol;
      "|kernel=";
      (match config.gp_kernel with `Compiled -> "compiled" | `List -> "list");
      "|warm=";
      string_of_bool config.warm_start;
      "|inject=";
      Robust.Inject.to_string config.inject;
      (* [Prune] solves reduced problems and skips pruned pairs, which is
         a different workload from [Off]'s. *)
      "|presolve=";
      Analysis.Presolve.mode_name config.presolve;
      (* The communication model changes the delay constraints a pair is
         lowered with.  (For the Energy objective the GPs coincide;
         entering the fingerprint keeps the invalidation rule uniform.)
         [contention] is excluded: it never changes a solve, only
         evaluation-side scoring — it enters {!request_key} instead. *)
      "|comm=";
      Archspec.Link.comm_model_name config.comm;
    ]

(* Canonical structural key of a GP: the exact coefficient and
   exponent bits of every term, in formulation order, with constraint
   names excluded — the solver's behavior depends on names only through
   the variable set, which the exponent maps carry.  Programs with equal
   keys are the same mathematical program.  The sweep never builds it:
   perfbench's stage replay does, and it goes with that replay. *)
let problem_key problem =
  let buf = Buffer.create 1024 in
  let fl v =
    Buffer.add_string buf (Obs.Json.bits v);
    Buffer.add_char buf ';'
  in
  let mono m =
    fl (Symexpr.Monomial.coeff m);
    List.iter
      (fun (x, e) ->
        Buffer.add_string buf x;
        Buffer.add_char buf ':';
        fl e)
      (Symexpr.Monomial.exponents m);
    Buffer.add_char buf '|'
  in
  let poly p =
    List.iter mono (Symexpr.Posynomial.terms p);
    Buffer.add_char buf '#'
  in
  poly (Gp.Problem.objective problem);
  Buffer.add_char buf 'I';
  List.iter (fun (_, p) -> poly p) (Gp.Problem.ineqs problem);
  Buffer.add_char buf 'E';
  List.iter
    (fun (_, m) ->
      mono m;
      Buffer.add_char buf '#')
    (Gp.Problem.eqs problem);
  Buffer.contents buf

(* Canonical identity of a whole optimization request, for the serve
   layer's cross-request result store (DESIGN §14).  [problem_key] keys
   only the GP structure, which is not enough at request granularity:
   two arches with identical capacities but different names formulate
   bit-identical GPs yet print different reports, and the integerization
   knobs never enter the GP at all.  This key therefore covers
   everything outside the solver that determines the report: the
   technology point (exact bits), the arch mode, the objective, the full
   nest (dims, extents, tensors, projections) and the enumeration /
   integerization / lint configuration.  Solver behavior is versioned
   separately by {!config_fingerprint}; a result cache keys on both.
   [jobs] is excluded — it never changes the report (the bit-identity
   contract of §7) — and so are [shard], [journal], [resume],
   [solve_deadline_ms] and [retries], which [run] refuses unless they
   hold their defaults. *)
let request_key ~config tech arch_mode objective nest =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let int i = add (string_of_int i) in
  let fl v =
    add (Obs.Json.bits v);
    add ";"
  in
  add "rk2|tech:";
  fl tech.Archspec.Technology.area_mac;
  fl tech.Archspec.Technology.area_register;
  fl tech.Archspec.Technology.area_sram_word;
  fl tech.Archspec.Technology.energy_mac;
  fl tech.Archspec.Technology.sigma_register;
  fl tech.Archspec.Technology.sigma_sram;
  fl tech.Archspec.Technology.energy_dram;
  fl tech.Archspec.Technology.dram_bandwidth;
  fl tech.Archspec.Technology.sram_bandwidth;
  let link (l : Archspec.Link.t) =
    fl l.Archspec.Link.bandwidth;
    fl l.Archspec.Link.burst_words;
    fl l.Archspec.Link.burst_overhead
  in
  add "links:";
  link tech.Archspec.Technology.links.Archspec.Link.dram;
  link tech.Archspec.Technology.links.Archspec.Link.noc;
  link tech.Archspec.Technology.links.Archspec.Link.reg;
  (match arch_mode with
  | Formulate.Fixed a ->
    add "|arch:";
    add a.Archspec.Arch.arch_name;
    add ":";
    int a.Archspec.Arch.pe_count;
    add ":";
    int a.Archspec.Arch.registers_per_pe;
    add ":";
    int a.Archspec.Arch.sram_words
  | Formulate.Codesign { area_budget } ->
    add "|codesign:";
    fl area_budget);
  add
    (match objective with
    | Formulate.Energy -> "|obj:energy"
    | Formulate.Delay -> "|obj:delay"
    | Formulate.Edp -> "|obj:edp");
  add "|nest:";
  add (Workload.Nest.name nest);
  List.iter
    (fun (d : Workload.Nest.dim) ->
      add ";";
      add d.Workload.Nest.dim_name;
      add "=";
      int d.Workload.Nest.extent)
    (Workload.Nest.dims nest);
  List.iter
    (fun (t : Workload.Nest.tensor) ->
      add "|T:";
      add t.Workload.Nest.tensor_name;
      add ":";
      add (string_of_bool t.Workload.Nest.read_write);
      List.iter
        (fun (proj : Workload.Nest.projection) ->
          add "[";
          List.iter
            (fun (ix : Workload.Nest.index) ->
              int ix.Workload.Nest.stride;
              add "*";
              add ix.Workload.Nest.iter;
              add ",")
            proj;
          add "]")
        t.Workload.Nest.projections)
    (Workload.Nest.tensors nest);
  add "|cfg:nd=";
  int config.n_divisors;
  add ";np=";
  int config.n_pow2;
  add ";top=";
  int config.top_choices;
  add ";max=";
  int config.max_choices;
  add ";expl=";
  add (string_of_bool config.explore_placements);
  add ";util=";
  fl config.min_pe_utilization;
  add "lint=";
  add (Analysis.Lint.mode_name config.lint);
  (* Unlike {!config_fingerprint}, contention belongs here: it changes
     the integerizer's candidate scoring, hence the served result. *)
  add ";comm=";
  add (Archspec.Link.comm_model_name config.comm);
  add ";cont=";
  add (string_of_bool config.contention);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The sweep: one pair table, named stages                            *)
(* ------------------------------------------------------------------ *)

(* [run] is Fig. 2's flow as a straight pipeline over one table with a
   row per (choice, placement) pair:

     enumerate -> formulate -> solve -> certify -> integerize -> select

   Each stage is a function of what the previous ones produced.  The
   parallel ones (formulate, the two solve waves, certify, integerize)
   run on Exec.Par.map, which preserves sequential order, and every
   scheduling decision is a function of the enumeration order alone, so
   the sweep is bit-identical for any [jobs].  The §9 counters are
   computed once, from the final table ({!feed_counters}). *)

(* The work-list: pair [k] is [work.(k)] = (choice [k / nplac],
   placement [k mod nplac]), in exact enumeration order. *)
type sweep = {
  plan : Permutations.plan;
  work : ((Permutations.choice * Volume.t) * (string * float) list) array;
  nplac : int;
}

(* One pair as formulated: the instance and the presolve verdict that
   survived re-checking ([None] when presolve is off, crashed or had its
   proof rejected).  The sweep keeps only the verdict, not the
   propagated box. *)
type pair = { instance : Formulate.instance; pre : Analysis.Presolve.verdict option }

(* How a pair's slot was produced. *)
type source =
  | Solved_here of { warm : bool }
      (* handed to the solver, warm-started from its choice's pinned
         solution or cold *)
  | Presolve_pruned  (* statically infeasible, never solved *)

(* A pair's fate after the solve stage — a solution, the quarantining
   failure or the pruning proof — with its solve's telemetry. *)
type slot = { s_fate : Sweep.Journal.fate; s_stats : Gp.Solver.stats; s_source : source }

(* A shortlisted pair's integerization: a design point, no surviving
   integer candidate, or the failure that quarantined it. *)
type integerized = ((Integerize.outcome, string) result, Robust.failure) result

type row = {
  pair : pair;
  slot : slot;
  usable : Gp.Solver.solution option;  (* the certified solution *)
  integerized : integerized option;  (* shortlisted rows only *)
}

(* The solution gate: a point is usable when the solver found one
   (optimal or iteration-limited), its objective is finite, and the
   post-solve certificate finds no hard failure — a point with
   non-finite coordinates or constraint evaluations is discarded even
   when the solver reported a finite objective for it. *)
let usable_solution instance (solution : Gp.Solver.solution) =
  match solution.Gp.Solver.status with
  | Gp.Solver.Infeasible -> false
  | Gp.Solver.Optimal | Gp.Solver.Iteration_limit ->
    Float.is_finite solution.Gp.Solver.objective
    &&
    let cert =
      Analysis.Certificate.check ~provenance:instance.Formulate.provenance
        instance.Formulate.problem
        (Formulate.solution_env instance solution)
    in
    if Analysis.Certificate.hard_failure cert then begin
      Log.debug (fun m ->
          m "%s: certificate rejected solution: %s" instance.Formulate.provenance
            (Analysis.Diagnostic.summary cert.Analysis.Certificate.diagnostics));
      false
    end
    else true

(* Differential validation of one presolve verdict against a usable
   solution of the original problem (DESIGN §13): a solved
   presolve-infeasible program, a coordinate escaping the propagated
   box, or an eliminated constraint active at the optimum is a presolve
   soundness bug. *)
let presolve_disagreements instance (t : Analysis.Presolve.t)
    (solution : Gp.Solver.solution) =
  let prov = instance.Formulate.provenance in
  match t.Analysis.Presolve.verdict with
  | Analysis.Presolve.Infeasible proof ->
    [
      Printf.sprintf "%s: solved despite an infeasibility proof (culprit %s)" prov
        proof.Analysis.Presolve.culprit;
    ]
  | Analysis.Presolve.Feasible red ->
    let escaped =
      List.filter_map
        (fun (x, v) ->
          match List.assoc_opt x t.Analysis.Presolve.box with
          | Some iv when not (Analysis.Interval.mem ~slack:1e-4 v iv) ->
            Some
              (Format.asprintf "%s: solution %s = %g escapes the presolve box %a" prov
                 x v Analysis.Interval.pp iv)
          | Some _ | None -> None)
        solution.Gp.Solver.values
    in
    let env = Formulate.solution_env instance solution in
    let active =
      List.filter_map
        (fun (name, _) ->
          match List.assoc_opt name (Gp.Problem.ineqs instance.Formulate.problem) with
          | None -> None
          | Some p ->
            let v = Symexpr.Posynomial.eval env p in
            if v >= 1.0 -. 1e-7 then
              Some
                (Printf.sprintf
                   "%s: eliminated constraint %s evaluates to %g at the optimum" prov
                   name v)
            else None)
        red.Analysis.Presolve.dropped
    in
    escaped @ active

(* Configurations [run] refuses outright: sweeps are not sharded,
   journaled or resumed (DESIGN §12), and solves have no deadline and
   are not retried (§11), so no caller may believe otherwise. *)
let check_config config =
  if config.shard <> Sweep.Partition.full || config.journal <> None || config.resume then
    Error "optimize: sweeps are not sharded, journaled or resumed (shard, journal and \
           resume must keep their defaults)"
  else if config.solve_deadline_ms <> None || config.retries <> 0 then
    Error "optimize: solves have no deadline and are not retried (solve_deadline_ms and \
           retries must keep their defaults)"
  else Ok ()

let enumerate config nest =
  let plan =
    Obs.Trace.span "permutations.enumerate" (fun () ->
        Permutations.enumerate ~max_choices:config.max_choices nest)
  in
  let placements =
    if config.explore_placements then plan.Permutations.placements
    else [ plan.Permutations.pinned ]
  in
  let work =
    List.concat_map
      (fun choice_vol -> List.map (fun pl -> (choice_vol, pl)) placements)
      plan.Permutations.choices
  in
  { plan; work = Array.of_list work; nplac = Int.max 1 (List.length placements) }

(* Presolve one formulated pair.  Verdicts gate individual pairs, never
   the sweep, and an infeasibility verdict stands only once
   {!Analysis.Certificate.check_prune} re-checks its proof.  A rejected
   proof — or a crash inside the propagator — leaves the pair without a
   verdict, solved as formulated, with a warning, so a buggy propagator
   can never silently discard a feasible pair. *)
let presolve_of config instance =
  match config.presolve with
  | Analysis.Presolve.Off -> None
  | Analysis.Presolve.Prune -> (
    let problem = instance.Formulate.problem in
    let prov = instance.Formulate.provenance in
    match Analysis.Presolve.analyze problem with
    | exception e ->
      Log.warn (fun m ->
          m "%s: presolve crashed, solving anyway: %s" prov (Printexc.to_string e));
      None
    | { Analysis.Presolve.verdict = Analysis.Presolve.Infeasible proof as verdict; _ } -> (
      match Analysis.Certificate.check_prune problem proof with
      | Ok () -> Some verdict
      | Error msg ->
        Log.warn (fun m -> m "%s: presolve proof rejected, solving anyway: %s" prov msg);
        None)
    | { Analysis.Presolve.verdict; _ } -> Some verdict)

(* Stage formulate: formulate, lint and presolve every pair.
   The pairs are independent — Formulate.build shares no mutable state.
   A lint rejection aborts the whole sweep: every pair of one layer
   shares the formulation code, so one malformed instance means the
   model itself is wrong, not that one choice is unlucky.  So does a
   pair whose program cannot be built (a coefficient out of the float
   range); the error is the first such pair's, in sweep order. *)
exception Unformulable of string

let formulate ~config ~jobs tech arch_mode objective sweep =
  match
    Exec.Par.map ~jobs
      (fun k ->
        let choice_vol, placement = sweep.work.(k) in
        let instance =
          Obs.Trace.span "formulate" (fun () ->
              match
                Formulate.build ~placement ~comm:config.comm tech arch_mode objective
                  sweep.plan choice_vol
              with
              | instance -> instance
              | exception Invalid_argument msg -> raise (Unformulable msg))
        in
        Analysis.Lint.gate config.lint (Formulate.lint instance);
        let pre = Obs.Trace.span "analysis.presolve" (fun () -> presolve_of config instance) in
        { instance; pre })
      (List.init (Array.length sweep.work) Fun.id)
  with
  | pairs -> Ok (Array.of_list pairs)
  | exception Unformulable msg -> Error ("optimize: cannot formulate " ^ msg)
  | exception Analysis.Lint.Rejected diags ->
    Error
      (Printf.sprintf "optimize: lint rejected formulation: %s"
         (Analysis.Diagnostic.summary diags))

(* One pair's guarded solve (DESIGN §11): a solve that raises
   quarantines the pair.  A feasible presolve verdict swaps in the
   reduced problem, whose redundant constraints are dropped. *)
let solve_pair ~config ?warm_start pair =
  let prov = pair.instance.Formulate.provenance in
  let problem =
    match pair.pre with
    | Some (Analysis.Presolve.Feasible red) -> red.Analysis.Presolve.reduced
    | Some (Analysis.Presolve.Infeasible _) | None -> pair.instance.Formulate.problem
  in
  let st = Gp.Solver.fresh_stats () in
  let fate =
    match
      Robust.guard ~inject:config.inject ~site:"solve" ~provenance:prov (fun () ->
          Obs.Trace.span "solve"
            ~attrs:[ ("provenance", prov) ]
            (fun () ->
              Gp.Solver.solve ~tol:config.gp_tol ~stats:st ~kernel:config.gp_kernel
                ?warm_start problem))
    with
    | Ok sol -> Sweep.Journal.Solved sol
    | Error f -> Sweep.Journal.Quarantined f
  in
  { s_fate = fate; s_stats = st; s_source = Solved_here { warm = Option.is_some warm_start } }

(* Stage solve: a presolve-pruned pair gets its slot first, with
   all-zero stats because no solver runs; then two waves, each remaining
   pair solved once.

   Wave 1 solves the pinned-placement pair of every choice cold.  Wave 2
   solves the remaining placements, warm-starting each from its own
   choice's pinned solution, which wave 1 settled.  Wave membership and
   warm-start sources are functions of the enumeration order alone,
   never of timing or worker count. *)
let solve ~config ~jobs sweep pairs =
  let slots =
    Array.map
      (fun p ->
        match p.pre with
        | Some (Analysis.Presolve.Infeasible proof) ->
          Some
            {
              s_fate = Sweep.Journal.Pruned proof;
              s_stats = Gp.Solver.fresh_stats ();
              s_source = Presolve_pruned;
            }
        | Some (Analysis.Presolve.Feasible _) | None -> None)
      pairs
  in
  let wave positions ~warm_of =
    let members =
      List.filter_map
        (fun k -> if Option.is_none slots.(k) then Some (k, warm_of k) else None)
        positions
    in
    let solved =
      Exec.Par.map ~jobs
        (fun (k, warm_start) -> solve_pair ~config ?warm_start pairs.(k))
        members
    in
    List.iter2 (fun (k, _) slot -> slots.(k) <- Some slot) members solved
  in
  let pinned, others =
    List.partition (fun k -> k mod sweep.nplac = 0) (List.init (Array.length pairs) Fun.id)
  in
  wave pinned ~warm_of:(fun _ -> None);
  wave others ~warm_of:(fun k ->
      if not config.warm_start then None
      else
        match slots.(k - (k mod sweep.nplac)) with
        | Some { s_fate = Sweep.Journal.Solved sol; _ }
          when sol.Gp.Solver.status <> Gp.Solver.Infeasible && sol.Gp.Solver.values <> []
          ->
          Some sol.Gp.Solver.values
        | _ -> None);
  let slots = Array.map Option.get slots in
  Array.iter
    (fun s ->
      match s.s_fate with
      | Sweep.Journal.Quarantined f ->
        Log.warn (fun m -> m "quarantined: %s" (Robust.describe f))
      | Sweep.Journal.Solved _ | Sweep.Journal.Pruned _ -> ())
    slots;
  slots

(* Stage certify: gate every pair's solution through {!usable_solution}
   in parallel.  Quarantined and pruned pairs pass through. *)
let certify ~jobs pairs slots =
  Array.of_list
    (Exec.Par.map ~jobs
       (fun k ->
         let pair = pairs.(k) and slot = slots.(k) in
         let usable =
           match slot.s_fate with
           | Sweep.Journal.Solved sol
             when Obs.Trace.span "analysis.certify" (fun () -> usable_solution pair.instance sol) ->
             Some sol
           | Sweep.Journal.Solved _ | Sweep.Journal.Quarantined _ | Sweep.Journal.Pruned _
             ->
             None
         in
         { pair; slot; usable; integerized = None })
       (List.init (Array.length pairs) Fun.id))

(* Table positions of the certified rows with their solutions, best
   continuous objective first.  The sort is stable over enumeration
   order, so ties keep it, and [compare_scores] (not [Float.compare],
   which sorts NaN first) ranks any non-finite objective last, so a
   bogus solution can never top the shortlist or become
   [best_continuous] while a finite one exists. *)
let ranked table =
  List.stable_sort
    (fun (_, a) (_, b) -> compare_scores a.Gp.Solver.objective b.Gp.Solver.objective)
    (List.filter_map
       (fun k -> Option.map (fun sol -> (k, sol)) table.(k).usable)
       (List.init (Array.length table) Fun.id))

(* Stage integerize: the [top_choices] best certified pairs become
   integer design points under a guard — a crash in model evaluation
   quarantines that candidate (no retry: the stage is deterministic in
   its inputs, so a second run would crash the same way) instead of
   killing the sweep. *)
let integerize ~config ~jobs tech table =
  let shortlist = List.filteri (fun i _ -> i < config.top_choices) (ranked table) in
  let results =
    Exec.Par.map ~jobs
      (fun (k, solution) ->
        let instance = table.(k).pair.instance in
        let prov = instance.Formulate.provenance in
        Robust.guard ~inject:config.inject ~site:"integerize" ~provenance:prov (fun () ->
            Obs.Trace.span "integerize"
              ~attrs:[ ("provenance", prov) ]
              (fun () ->
                Integerize.run ~n_divisors:config.n_divisors ~n_pow2:config.n_pow2
                  ~min_pe_utilization:config.min_pe_utilization
                  ~contention:config.contention tech instance solution)))
      shortlist
  in
  let table = Array.copy table in
  List.iter2
    (fun (k, _) r -> table.(k) <- { (table.(k)) with integerized = Some r })
    shortlist results;
  table

let solve_totals table =
  Array.fold_left
    (fun acc r -> Gp.Solver.accumulate acc r.slot.s_stats)
    Gp.Solver.zero_totals table

(* Every §9 counter of one sweep, computed once from its final table in
   enumeration order — never bumped from inside a parallel stage — so
   the values are functions of the workload and configuration alone
   (the Obs.Metrics determinism contract).  [solver.*] counts solves
   as the report's [solve_totals] does: one per solved pair. *)
let feed_counters table =
  let rows = Array.to_list table in
  let count p = List.length (List.filter p rows) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let from source r = r.slot.s_source = source in
  let t = solve_totals table in
  Obs.Metrics.add m_solves t.Gp.Solver.solves;
  Obs.Metrics.add m_outer (t.Gp.Solver.t_phase1_outer + t.Gp.Solver.t_phase2_outer);
  Obs.Metrics.add m_phase1 t.Gp.Solver.t_phase1_outer;
  Obs.Metrics.add m_phase2 t.Gp.Solver.t_phase2_outer;
  Obs.Metrics.add m_newton t.Gp.Solver.t_newton_iters;
  Obs.Metrics.add m_backtracks t.Gp.Solver.t_backtracks;
  Obs.Metrics.add m_kkt t.Gp.Solver.t_kkt_regularizations;
  Obs.Metrics.add m_chol_fallbacks t.Gp.Solver.t_cholesky_fallbacks;
  Obs.Metrics.observe_max g_gap t.Gp.Solver.max_duality_gap;
  Obs.Metrics.add m_warm_starts (count (from (Solved_here { warm = true })));
  Obs.Metrics.add m_presolve_pruned
    (count (fun r ->
         match r.pair.pre with
         | Some (Analysis.Presolve.Infeasible _) -> true
         | Some (Analysis.Presolve.Feasible _) | None -> false));
  Obs.Metrics.add m_presolve_dropped
    (sum (fun r ->
         match r.pair.pre with
         | Some (Analysis.Presolve.Feasible red) -> List.length red.Analysis.Presolve.dropped
         | Some (Analysis.Presolve.Infeasible _) | None -> 0));
  Obs.Metrics.add m_comm_constraints
    (sum (fun r ->
         List.length
           (List.filter
              (fun (name, _) -> List.mem name comm_constraint_names)
              (Gp.Problem.ineqs r.pair.instance.Formulate.problem))));
  Obs.Metrics.add m_quarantined
    (count (fun r ->
         match (r.slot.s_fate, r.integerized) with
         | Sweep.Journal.Quarantined _, _ | _, Some (Error _) -> true
         | _ -> false));
  Obs.Metrics.add m_comm_bound
    (count (fun r ->
         match r.integerized with
         | Some (Ok (Ok o)) ->
           o.Integerize.metrics.Accmodel.Evaluate.comm <> []
           && o.Integerize.metrics.Accmodel.Evaluate.binding <> "compute"
         | Some (Ok (Error _) | Error _) | None -> false))

(* Stage select: the best integer design point under the model score
   ({!select_best}, non-finite scores last), and the report. *)
let select sweep objective nest table =
  let rows = Array.to_list table in
  let solve_failures =
    List.filter_map
      (fun r ->
        match r.slot.s_fate with Sweep.Journal.Quarantined f -> Some f | _ -> None)
      rows
  in
  (* Reported like quarantined pairs so audits can re-check every proof. *)
  let pruned =
    List.filter_map
      (fun r ->
        match r.slot.s_fate with
        | Sweep.Journal.Pruned proof -> Some (r.pair.instance.Formulate.provenance, proof)
        | _ -> None)
      rows
  in
  let plan = sweep.plan in
  let nchoices = List.length plan.Permutations.choices in
  match ranked table with
  | [] ->
    Log.info (fun m ->
        m "%s: 0/%d choices solved (raw %d, %d quarantined, %d pruned)"
          (Workload.Nest.name nest) nchoices plan.Permutations.raw_count
          (List.length solve_failures) (List.length pruned));
    let reasons =
      (if solve_failures = [] then []
       else [ Printf.sprintf "%d pair(s) quarantined" (List.length solve_failures) ])
      @
      if pruned = [] then []
      else [ Printf.sprintf "%d pair(s) presolve-pruned" (List.length pruned) ]
    in
    Error
      (match reasons with
      | [] -> "optimize: no permutation choice produced a feasible program"
      | reasons ->
        Printf.sprintf "optimize: no permutation choice produced a feasible program (%s)"
          (String.concat ", " reasons))
  | (_, best) :: _ as ranked ->
    let warm =
      List.length (List.filter (fun r -> r.slot.s_source = Solved_here { warm = true }) rows)
    in
    Log.info (fun m ->
        m "%s: %d/%d choices solved (raw %d, %d warm)" (Workload.Nest.name nest)
          (List.length ranked) nchoices plan.Permutations.raw_count warm);
    let integerized = List.filter_map (fun (k, _) -> table.(k).integerized) ranked in
    let outcomes =
      List.filter_map
        (function
          | Ok (Ok o) -> Some o
          | Ok (Error msg) ->
            Log.debug (fun m -> m "integerize failed: %s" msg);
            None
          | Error _ -> None)
        integerized
    in
    let integerize_failures =
      List.filter_map (function Error f -> Some f | Ok _ -> None) integerized
    in
    List.iter
      (fun f -> Log.warn (fun m -> m "quarantined: %s" (Robust.describe f)))
      integerize_failures;
    (match
       select_best ~score:(fun o -> Integerize.score objective o.Integerize.metrics) outcomes
     with
    | None ->
      Error
        (if integerize_failures = [] then
           "optimize: no integer candidate survived model evaluation"
         else
           Printf.sprintf
             "optimize: no integer candidate survived model evaluation (%d pair(s) \
              quarantined)"
             (List.length integerize_failures))
    | Some outcome ->
      Ok
        {
          outcome;
          choices_enumerated = nchoices;
          choices_solved = List.length ranked;
          best_continuous = best.Gp.Solver.objective;
          solve_totals = solve_totals table;
          failures = solve_failures @ integerize_failures;
          pruned;
        })

let run ?(config = default_config) tech arch_mode objective nest =
  let ( let* ) = Result.bind in
  let jobs = Int.max 1 config.jobs in
  let* () = check_config config in
  let sweep = enumerate config nest in
  let* pairs = formulate ~config ~jobs tech arch_mode objective sweep in
  let slots = solve ~config ~jobs sweep pairs in
  let table = integerize ~config ~jobs tech (certify ~jobs pairs slots) in
  feed_counters table;
  select sweep objective nest table

let dataflow ?config tech arch objective nest =
  run ?config tech (Formulate.Fixed arch) objective nest

let codesign ?config tech ~area_budget objective nest =
  run ?config tech (Formulate.Codesign { area_budget }) objective nest
