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
    retries = 1;
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
let m_cache_hits = Obs.Metrics.counter "solver.cache_hits"
let m_warm_starts = Obs.Metrics.counter "solver.warm_starts"
let m_chol_fallbacks = Obs.Metrics.counter "solver.cholesky_fallbacks"
let g_gap = Obs.Metrics.gauge "solver.max_duality_gap"

(* Every counter below is computed once from the sweep's final pair
   table by [feed_counters] (DESIGN §9).  Robustness counters (§11): *)
let m_quarantined = Obs.Metrics.counter "robust.quarantined"
let m_retries = Obs.Metrics.counter "robust.retries"
let m_deadline_hits = Obs.Metrics.counter "robust.deadline_hits"

(* Sharded/resumable sweep counters (DESIGN §9/§12).  [sweep.pairs_solved]
   counts physical solver invocations this run — the number a resumed or
   merged run keeps low — while [solve_totals] keeps counting logical
   solves (journal replays included) so reports stay identical. *)
let m_journal_hits = Obs.Metrics.counter "sweep.journal_hits"
let m_journal_stale = Obs.Metrics.counter "sweep.journal_stale"
let m_pairs_solved = Obs.Metrics.counter "sweep.pairs_solved"

(* Presolve counters (DESIGN §9/§13): the formulate stage's verdicts
   over the owned pairs.  [Prune] and [Check] produce identical
   verdicts, hence identical counters; [Off] leaves all three at zero. *)
let m_presolve_pruned = Obs.Metrics.counter "presolve.pruned"
let m_presolve_vars_fixed = Obs.Metrics.counter "presolve.vars_fixed"
let m_presolve_dropped = Obs.Metrics.counter "presolve.constraints_dropped"

(* Communication-model counters (DESIGN §9/§16): per-link delay
   constraints emitted across the owned pairs (a function of the nest,
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

(* Everything that can change a pair's journaled fate besides the
   problem itself: solver tolerance and kernel, reuse policy, the
   deadline/retry/injection machinery.  Entering the pair fingerprint,
   it versions the journal cache — change any of these and every
   journal entry goes stale and is re-solved (DESIGN §12). *)
let config_fingerprint config =
  Printf.sprintf
    "v3|tol=%s|kernel=%s|warm=%b|dedupe=%b|deadline=%s|retries=%d|inject=%s|presolve=%s|comm=%s"
    (Obs.Json.bits config.gp_tol)
    (match config.gp_kernel with `Compiled -> "compiled" | `List -> "list")
    config.warm_start config.dedupe
    (match config.solve_deadline_ms with
    | None -> "none"
    | Some ms -> Obs.Json.bits ms)
    config.retries
    (Robust.Inject.to_string config.inject)
    (* [Check] solves every original problem exactly as [Off] does —
       presolve only audits — so their journal entries are
       interchangeable; [Prune] solves reduced problems and skips pruned
       pairs, which is a different workload. *)
    (match config.presolve with
    | Analysis.Presolve.Prune -> "prune"
    | Analysis.Presolve.Check | Analysis.Presolve.Off -> "off")
    (* The communication model changes the delay constraints a pair is
       lowered with, so journaled fates of one model must never replay
       under the other.  (For the Energy objective the GPs coincide, but
       [problem_key] already keys that; entering the fingerprint keeps
       the invalidation rule uniform.)  [contention] is excluded: it
       never changes a solve, only evaluation-side scoring — it enters
       {!request_key} instead. *)
    (Archspec.Link.comm_model_name config.comm)

(* Canonical structural key of a GP: the exact coefficient and exponent
   bits of every term, in formulation order, with constraint names
   excluded — the solver's behavior depends on names only through the
   variable set, which the exponent maps carry.  Pairs with equal keys
   are the same mathematical program, so one solve serves all of them. *)
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
   [jobs], [shard] and the journal fields are excluded — they never
   change the report (the bit-identity contracts of §7/§12). *)
let request_key ~config tech arch_mode objective nest =
  let buf = Buffer.create 512 in
  let add = Buffer.add_string buf in
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
    add
      (Printf.sprintf "|arch:%s:%d:%d:%d" a.Archspec.Arch.arch_name
         a.Archspec.Arch.pe_count a.Archspec.Arch.registers_per_pe
         a.Archspec.Arch.sram_words)
  | Formulate.Codesign { area_budget } ->
    add "|codesign:";
    fl area_budget);
  add
    (match objective with
    | Formulate.Energy -> "|obj:energy"
    | Formulate.Delay -> "|obj:delay"
    | Formulate.Edp -> "|obj:edp");
  add (Printf.sprintf "|nest:%s" (Workload.Nest.name nest));
  List.iter
    (fun (d : Workload.Nest.dim) ->
      add (Printf.sprintf ";%s=%d" d.Workload.Nest.dim_name d.Workload.Nest.extent))
    (Workload.Nest.dims nest);
  List.iter
    (fun (t : Workload.Nest.tensor) ->
      add
        (Printf.sprintf "|T:%s:%b" t.Workload.Nest.tensor_name
           t.Workload.Nest.read_write);
      List.iter
        (fun (proj : Workload.Nest.projection) ->
          add "[";
          List.iter
            (fun (ix : Workload.Nest.index) ->
              add
                (Printf.sprintf "%d*%s," ix.Workload.Nest.stride
                   ix.Workload.Nest.iter))
            proj;
          add "]")
        t.Workload.Nest.projections)
    (Workload.Nest.tensors nest);
  add
    (Printf.sprintf "|cfg:nd=%d;np=%d;top=%d;max=%d;expl=%b;util=" config.n_divisors
       config.n_pow2 config.top_choices config.max_choices
       config.explore_placements);
  fl config.min_pe_utilization;
  add
    (match config.lint with
    | Analysis.Lint.Enforce -> "lint=enforce"
    | Analysis.Lint.Warn -> "lint=warn"
    | Analysis.Lint.Off -> "lint=off");
  (* Unlike the journal fingerprint, contention belongs here: it changes
     the integerizer's candidate scoring, hence the served result. *)
  add
    (Printf.sprintf ";comm=%s;cont=%b"
       (Archspec.Link.comm_model_name config.comm)
       config.contention);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The sweep: one pair table, named stages                            *)
(* ------------------------------------------------------------------ *)

(* [run] is Fig. 2's flow as a straight pipeline over one table with a
   row per owned (choice, placement) pair:

     enumerate -> formulate -> seed -> solve -> certify
       -> presolve check -> integerize -> select

   Each stage is a function of what the previous ones produced.  The
   parallel ones (formulate, the two solve waves, certify, integerize)
   run on Exec.Par.map, which preserves sequential order, and every
   scheduling decision is a function of the enumeration order alone, so
   the sweep is bit-identical for any [jobs].  The §9 counters are
   computed once, from the final table ({!feed_counters}). *)

(* The work-list: pair [i] is [work.(i)] = (choice [i / nplac],
   placement [i mod nplac]), in exact enumeration order.  Shard
   membership, journal entries and the merge step all speak this
   indexing (DESIGN §12). *)
type sweep = {
  plan : Permutations.plan;
  work : ((Permutations.choice * Volume.t) * (string * float) list) array;
  nplac : int;
}

(* One owned pair as formulated: its global index, the instance, its
   {!problem_key}, its journal fingerprint, and the presolve verdict
   that survived re-checking ([None] when presolve is off or crashed). *)
type pair = {
  idx : int;
  instance : Formulate.instance;
  key : string;
  fp : string;
  pre : Analysis.Presolve.t option;
}

(* How a pair's slot was produced. *)
type source =
  | Solved_here of { warm : bool }
      (* handed to the solver by this run, warm-started from its
         choice's pinned solution or cold *)
  | Dedupe_replay  (* copied from the first pair with the same key *)
  | Journal_replay  (* replayed from a matching journal entry *)
  | Presolve_pruned  (* statically infeasible, never solved *)

(* A pair's fate after the solve stage — a solution, the quarantining
   failure or the pruning proof — with the final attempt's telemetry,
   the extra attempts spent, and the deadline hits across every attempt
   (retried stalls included, which the final attempt's stats alone
   would miss). *)
type slot = {
  s_fate : Sweep.Journal.fate;
  s_stats : Gp.Solver.stats;
  s_retries : int;
  s_deadline_hits : int;
  s_source : source;
}

let slot ?(retries = 0) ?(deadline_hits = 0) s_source s_fate s_stats =
  { s_fate; s_stats; s_retries = retries; s_deadline_hits = deadline_hits; s_source }

(* What is settled before any solve: the slot of a journal-replayed or
   presolve-pruned pair, and whether the pair's journal entry went
   stale (its fingerprint no longer matches, so the pair is re-solved). *)
type seed = { seeded : slot option; stale : bool }

(* A shortlisted pair's integerization: a design point, no surviving
   integer candidate, or the failure that quarantined it. *)
type integerized = ((Integerize.outcome, string) result, Robust.failure) result

type row = {
  pair : pair;
  journal_stale : bool;
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
  | Gp.Solver.Infeasible | Gp.Solver.Deadline_exceeded -> false
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
    let active =
      List.filter_map
        (fun (name, _) ->
          match List.assoc_opt name (Gp.Problem.ineqs instance.Formulate.problem) with
          | None -> None
          | Some p ->
            let v =
              Symexpr.Posynomial.eval (Formulate.solution_env instance solution) p
            in
            if v >= 1.0 -. 1e-7 then
              Some
                (Printf.sprintf
                   "%s: eliminated constraint %s evaluates to %g at the optimum" prov
                   name v)
            else None)
        red.Analysis.Presolve.dropped
    in
    escaped @ active

(* Configurations [run] refuses outright. *)
let check_config config =
  if config.resume && config.journal = None then
    Error "optimize: resume requires a journal to replay (--journal FILE)"
  else Ok ()

let enumerate config nest =
  let plan = Permutations.enumerate ~max_choices:config.max_choices nest in
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
   proof — or a crash inside the propagator — downgrades the pair to
   "solve normally" with a warning, in [Prune] and [Check] alike, so a
   buggy propagator can never silently discard a feasible pair. *)
let presolve_of config instance =
  match config.presolve with
  | Analysis.Presolve.Off -> None
  | Analysis.Presolve.Prune | Analysis.Presolve.Check -> (
    let problem = instance.Formulate.problem in
    match Analysis.Presolve.analyze problem with
    | exception e ->
      Log.warn (fun m ->
          m "%s: presolve crashed, solving anyway: %s" instance.Formulate.provenance
            (Printexc.to_string e));
      None
    | t -> (
      match t.Analysis.Presolve.verdict with
      | Analysis.Presolve.Feasible _ -> Some t
      | Analysis.Presolve.Infeasible proof -> (
        match Analysis.Certificate.check_prune problem proof with
        | Ok () -> Some t
        | Error msg ->
          Log.warn (fun m ->
              m "%s: presolve proof rejected, solving anyway: %s"
                instance.Formulate.provenance msg);
          Some
            {
              t with
              Analysis.Presolve.verdict =
                Analysis.Presolve.Feasible
                  { Analysis.Presolve.reduced = problem; fixed = []; dropped = [] };
            })))

(* Stage formulate: formulate, lint, key and presolve every owned pair.
   The pairs are independent — Formulate.build shares no mutable state.
   A lint rejection aborts the whole sweep: every pair of one layer
   shares the formulation code, so one malformed instance means the
   model itself is wrong, not that one choice is unlucky. *)
let formulate ~config ~jobs tech arch_mode objective sweep =
  let config_fp = config_fingerprint config in
  match
    Exec.Par.map ~jobs
      (fun idx ->
        let choice_vol, placement = sweep.work.(idx) in
        let instance =
          Obs.Trace.span "formulate" (fun () ->
              Formulate.build ~placement ~comm:config.comm tech arch_mode objective
                sweep.plan choice_vol)
        in
        Analysis.Lint.gate config.lint (Formulate.lint instance);
        let key = problem_key instance.Formulate.problem in
        {
          idx;
          instance;
          key;
          fp = Sweep.Journal.fingerprint ~config:config_fp ~problem_key:key;
          pre = presolve_of config instance;
        })
      (Sweep.Partition.pair_indices config.shard ~nplac:sweep.nplac
         ~npairs:(Array.length sweep.work))
  with
  | pairs -> Ok (Array.of_list pairs)
  | exception Analysis.Lint.Rejected diags ->
    Error
      (Printf.sprintf "optimize: lint rejected formulation: %s"
         (Analysis.Diagnostic.summary diags))

(* Stage seed: settle what the journal and presolve can before any
   solve.  A resume replays a pair's journal entry only while its
   fingerprint — (problem key, {!config_fingerprint}) — still matches;
   the last entry per pair wins, since a re-run may have appended a
   fresh entry for a pair whose earlier one had gone stale.  In [Prune]
   mode a statically infeasible pair gets its fate here, with all-zero
   stats because no solver ran. *)
let seed ~config pairs =
  let entries = Hashtbl.create 64 in
  (match config.journal with
  | Some path when config.resume -> (
    match Sweep.Journal.load_existing path with
    | Error msg ->
      Log.warn (fun m -> m "journal %s unreadable, resuming nothing: %s" path msg)
    | Ok es ->
      List.iter (fun (e : Sweep.Journal.entry) -> Hashtbl.replace entries e.pair e) es)
  | Some _ | None -> ());
  Array.map
    (fun p ->
      match Hashtbl.find_opt entries p.idx with
      | Some e when String.equal e.Sweep.Journal.fingerprint p.fp ->
        let seeded =
          slot ~retries:e.Sweep.Journal.retries
            ~deadline_hits:e.Sweep.Journal.deadline_hits Journal_replay
            e.Sweep.Journal.fate e.Sweep.Journal.stats
        in
        { seeded = Some seeded; stale = false }
      | entry ->
        let seeded =
          match (config.presolve, p.pre) with
          | ( Analysis.Presolve.Prune,
              Some { Analysis.Presolve.verdict = Analysis.Presolve.Infeasible proof; _ } )
            ->
            Some (slot Presolve_pruned (Sweep.Journal.Pruned proof) (Gp.Solver.fresh_stats ()))
          | _ -> None
        in
        { seeded; stale = Option.is_some entry })
    pairs

(* One pair's guarded solve, retried per [config.retries] (DESIGN §11).

   In [Prune] mode a feasible presolve verdict swaps in the reduced
   problem: fixed variables are gone (the solver's nullspace basis
   shrinks accordingly) and redundant constraints are dropped.  The
   fixed values are re-injected into every solution so downstream
   consumers — certificates, integerization, warm starts, journal
   replays — see a complete assignment; {!Formulate.solution_env} would
   otherwise default them to 1.

   A stall injection forces a zero deadline on that attempt, which trips
   [Deadline_exceeded] deterministically at the solver's first check
   without reading the wall clock.  Retries escalate the initial KKT
   regularization — a solve that crashed or stalled was usually
   fighting a near-singular system. *)
let solve_pair ~config ?warm_start pair =
  let prov = pair.instance.Formulate.provenance in
  let problem, fixed =
    match (config.presolve, pair.pre) with
    | ( Analysis.Presolve.Prune,
        Some { Analysis.Presolve.verdict = Analysis.Presolve.Feasible red; _ } ) ->
      (red.Analysis.Presolve.reduced, red.Analysis.Presolve.fixed)
    | _ -> (pair.instance.Formulate.problem, [])
  in
  let solved ?retries ?deadline_hits =
    slot ?retries ?deadline_hits (Solved_here { warm = Option.is_some warm_start })
  in
  if fixed <> [] && Gp.Problem.variables problem = [] then
    (* Every variable was pinned by monotonicity: the program is a
       point, already proven feasible, so there is nothing to solve. *)
    solved
      (Sweep.Journal.Solved
         {
           Gp.Solver.status = Gp.Solver.Optimal;
           objective =
             Symexpr.Posynomial.eval (fun _ -> 1.0) (Gp.Problem.objective problem);
           values = fixed;
         })
      (Gp.Solver.fresh_stats ())
  else
    let deadline_ns = Option.map (fun ms -> ms *. 1e6) config.solve_deadline_ms in
    let max_attempts = 1 + Int.max 0 config.retries in
    let start = Robust.now_ns () in
    let rec attempt n ~dh =
      let st = Gp.Solver.fresh_stats () in
      let deadline_ns =
        if Robust.Inject.stall config.inject ~site:"solve" ~provenance:prov ~attempt:n
        then Some 0.0
        else deadline_ns
      in
      let result =
        Robust.guard ~inject:config.inject ~attempt:n ~site:"solve" ~provenance:prov
          (fun () ->
            Obs.Trace.span "solve"
              ~attrs:[ ("provenance", prov) ]
              (fun () ->
                Gp.Solver.solve ~tol:config.gp_tol ~stats:st ~kernel:config.gp_kernel
                  ?deadline_ns
                  ~initial_reg:(if n = 0 then 1e-9 else 1e-5)
                  ?warm_start problem))
      in
      let dh = dh + st.Gp.Solver.deadline_hits in
      let finish fate = solved ~retries:n ~deadline_hits:dh fate st in
      match result with
      | Ok sol when sol.Gp.Solver.status <> Gp.Solver.Deadline_exceeded ->
        finish
          (Sweep.Journal.Solved
             (if fixed = [] then sol
              else { sol with Gp.Solver.values = sol.Gp.Solver.values @ fixed }))
      | _ when n + 1 < max_attempts -> attempt (n + 1) ~dh
      | Ok _ ->
        finish
          (Sweep.Journal.Quarantined
             (Robust.deadline_failure ~attempts:(n + 1) ~site:"solve" ~provenance:prov
                ~elapsed_ns:(Robust.now_ns () -. start)
                ()))
      | Error f -> finish (Sweep.Journal.Quarantined f)
    in
    attempt 0 ~dh:0

(* Stage solve: two waves with sweep-level reuse.

   Wave 1 solves the pinned-placement pair of every choice cold,
   deduplicating identical programs onto their first occurrence in
   enumeration order.  Wave 2 solves the remaining placements,
   deduplicating against everything already keyed, and warm-starting
   each representative from its own choice's pinned solution — which
   wave 1 always provides.  Seeded pairs register as representatives
   (later duplicates replay from them) but are never re-solved.  Wave
   membership, representatives and warm-start sources are functions of
   the enumeration order alone, never of timing or worker count.

   Every pair this run settles — pruned, solved or replayed — is
   appended to the journal as it finishes, under a mutex and flushed per
   entry, so a killed run loses at most the pairs still in flight. *)
let solve ~config ~jobs sweep pairs seeds =
  let slots = Array.map (fun s -> s.seeded) seeds in
  let journal =
    Option.map (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path) config.journal
  in
  let mutex = Mutex.create () in
  let emit k slot =
    Option.iter
      (fun oc ->
        let p = pairs.(k) in
        let entry =
          {
            Sweep.Journal.pair = p.idx;
            fingerprint = p.fp;
            provenance = p.instance.Formulate.provenance;
            fate = slot.s_fate;
            stats = slot.s_stats;
            retries = slot.s_retries;
            deadline_hits = slot.s_deadline_hits;
          }
        in
        Mutex.protect mutex (fun () -> Sweep.Journal.append_line oc entry))
      journal
  in
  Fun.protect ~finally:(fun () -> Option.iter close_out_noerr journal) @@ fun () ->
  Array.iteri
    (fun k -> function
      | Some ({ s_source = Presolve_pruned; _ } as slot) -> emit k slot
      | Some _ | None -> ())
    slots;
  let reps = Hashtbl.create (2 * Array.length pairs) in
  let is_rep k =
    let key = pairs.(k).key in
    if config.dedupe && Hashtbl.mem reps key then false
    else begin
      Hashtbl.replace reps key k;
      true
    end
  in
  (* A replay copies the representative's telemetry into fresh stats, so
     [solve_totals] counts logical solves exactly as an undeduplicated
     sweep would.  A quarantined representative quarantines its replicas
     too (same program, same fate), relabeled with their own provenance. *)
  let replay k =
    let rep = Option.get slots.(Hashtbl.find reps pairs.(k).key) in
    let st = Gp.Solver.fresh_stats () in
    Gp.Solver.copy_stats ~into:st rep.s_stats;
    let s_fate =
      match rep.s_fate with
      | Sweep.Journal.Quarantined f ->
        Sweep.Journal.Quarantined
          { f with Robust.provenance = pairs.(k).instance.Formulate.provenance }
      | (Sweep.Journal.Solved _ | Sweep.Journal.Pruned _) as fate -> fate
    in
    let slot = { rep with s_fate; s_stats = st; s_source = Dedupe_replay } in
    slots.(k) <- Some slot;
    emit k slot
  in
  let wave positions ~warm_of =
    let members =
      List.filter_map
        (fun k -> if is_rep k && Option.is_none slots.(k) then Some (k, warm_of k) else None)
        positions
    in
    let solved =
      Exec.Par.map ~jobs
        (fun (k, warm_start) ->
          let slot = solve_pair ~config ?warm_start pairs.(k) in
          emit k slot;
          slot)
        members
    in
    List.iter2 (fun (k, _) slot -> slots.(k) <- Some slot) members solved;
    List.iter (fun k -> if Option.is_none slots.(k) then replay k) positions
  in
  let pinned, others =
    List.partition
      (fun k -> Sweep.Partition.is_pinned ~nplac:sweep.nplac pairs.(k).idx)
      (List.init (Array.length pairs) Fun.id)
  in
  wave pinned ~warm_of:(fun _ -> None);
  (* Shards own whole choices, so a pair's pinned pair sits [placement]
     rows above it in the table. *)
  wave others ~warm_of:(fun k ->
      if not config.warm_start then None
      else
        match slots.(k - Sweep.Partition.placement_of ~nplac:sweep.nplac pairs.(k).idx) with
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
let certify ~jobs pairs seeds slots =
  Array.of_list
    (Exec.Par.map ~jobs
       (fun k ->
         let pair = pairs.(k) and slot = slots.(k) in
         let usable =
           match slot.s_fate with
           | Sweep.Journal.Solved sol when usable_solution pair.instance sol -> Some sol
           | Sweep.Journal.Solved _ | Sweep.Journal.Quarantined _ | Sweep.Journal.Pruned _
             ->
             None
         in
         { pair; journal_stale = seeds.(k).stale; slot; usable; integerized = None })
       (List.init (Array.length pairs) Fun.id))

(* Stage presolve check ([Check] mode only): every pair was solved as
   formulated, so each usable solution is compared against the pair's
   presolve verdict.  Any disagreement fails the run — after the
   counters are fed, so [Check] and [Prune] report identical telemetry. *)
let presolve_check ~config table =
  let disagreements =
    if config.presolve <> Analysis.Presolve.Check then []
    else
      List.concat_map
        (fun r ->
          match (r.pair.pre, r.usable) with
          | Some t, Some sol -> presolve_disagreements r.pair.instance t sol
          | _ -> [])
        (Array.to_list table)
  in
  match disagreements with
  | [] -> Ok ()
  | first :: _ ->
    List.iter (fun d -> Log.err (fun m -> m "presolve check: %s" d)) disagreements;
    Error
      (Printf.sprintf "optimize: presolve check found %d disagreement(s); first: %s"
         (List.length disagreements) first)

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
   (the Obs.Metrics determinism contract).  [solver.*] counts logical
   solves, replays included, as the report's [solve_totals] does;
   [sweep.pairs_solved] counts the pairs this run handed to the solver. *)
let feed_counters table =
  let rows = Array.to_list table in
  let count p = List.length (List.filter p rows) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let from source r = r.slot.s_source = source in
  let reduced f =
    sum (fun r ->
        match r.pair.pre with
        | Some { Analysis.Presolve.verdict = Analysis.Presolve.Feasible red; _ } ->
          List.length (f red)
        | Some _ | None -> 0)
  in
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
  Obs.Metrics.add m_cache_hits (count (from Dedupe_replay));
  Obs.Metrics.add m_warm_starts (count (from (Solved_here { warm = true })));
  Obs.Metrics.add m_journal_hits (count (from Journal_replay));
  Obs.Metrics.add m_journal_stale (count (fun r -> r.journal_stale));
  Obs.Metrics.add m_pairs_solved
    (count (fun r ->
         match r.slot.s_source with
         | Solved_here _ -> true
         | Dedupe_replay | Journal_replay | Presolve_pruned -> false));
  Obs.Metrics.add m_presolve_pruned
    (count (fun r ->
         match r.pair.pre with
         | Some { Analysis.Presolve.verdict = Analysis.Presolve.Infeasible _; _ } -> true
         | Some _ | None -> false));
  Obs.Metrics.add m_presolve_vars_fixed (reduced (fun red -> red.Analysis.Presolve.fixed));
  Obs.Metrics.add m_presolve_dropped (reduced (fun red -> red.Analysis.Presolve.dropped));
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
  Obs.Metrics.add m_retries (sum (fun r -> r.slot.s_retries));
  Obs.Metrics.add m_deadline_hits (sum (fun r -> r.slot.s_deadline_hits));
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
    let count source = List.length (List.filter (fun r -> r.slot.s_source = source) rows) in
    Log.info (fun m ->
        m "%s: %d/%d choices solved (raw %d, %d deduped, %d warm)"
          (Workload.Nest.name nest) (List.length ranked) nchoices
          plan.Permutations.raw_count (count Dedupe_replay)
          (count (Solved_here { warm = true })));
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
  let seeds = seed ~config pairs in
  let slots = solve ~config ~jobs sweep pairs seeds in
  let table = certify ~jobs pairs seeds slots in
  let checked = presolve_check ~config table in
  let table = if Result.is_ok checked then integerize ~config ~jobs tech table else table in
  feed_counters table;
  let* () = checked in
  select sweep objective nest table

let dataflow ?config tech arch objective nest =
  run ?config tech (Formulate.Fixed arch) objective nest

let codesign ?config tech ~area_budget objective nest =
  run ?config tech (Formulate.Codesign { area_budget }) objective nest
