(** Thistle's top-level, single-layer entry points: enumerate pruned
    permutation choices, solve one geometric program per choice, convert
    the best few real-valued solutions to integer design points, and rank
    them with the accelerator model (Fig. 2's flow).

    [dataflow] optimizes the mapping for a fixed architecture (the paper's
    baseline experiments, Figs. 4 and 7); [codesign] additionally frees
    the architectural parameters under an area budget (Figs. 5, 6 and 8). *)

type config = {
  n_divisors : int;  (** paper's [n], divisor candidates per tile variable *)
  n_pow2 : int;  (** paper's [N], power-of-two candidates per capacity *)
  top_choices : int;
      (** how many best-by-continuous-objective permutation choices are
          integerized and model-evaluated *)
  max_choices : int;  (** cap on enumerated permutation choices *)
  gp_tol : float;
  explore_placements : bool;
      (** when false, window dims stay at the register level instead of
          also trying spatial placement (ablation knob) *)
  min_pe_utilization : float;
      (** integer candidates using a smaller fraction of the PEs are
          rejected (paper Section IV's utilization filter); 0 disables *)
  comm : Archspec.Link.comm_model;
      (** communication model for the delay lowering and candidate
          scoring (DESIGN §16).  [Comm_aware] (default) bounds each
          link occupancy — DRAM/NoC read and write, register operand
          stream — separately, with per-burst overhead folded into the
          coefficients; [Overlapped] keeps the historical aggregate
          [delay-sram]/[delay-dram] form, bit-identical to earlier
          releases.  Enters both {!config_fingerprint} (the lowering
          changes the GP) and {!request_key}. *)
  contention : bool;
      (** serialize the DRAM and NoC channels when scoring integer
          candidates (default [false]): the shared-bus busy time is the
          {e sum} of their occupancies rather than the max.  Only
          meaningful under [Comm_aware]; never changes a GP solve, so it
          enters {!request_key} but not {!config_fingerprint}. *)
  jobs : int;
      (** parallelism of the GP-solve sweep and integerization shortlist,
          run on the shared {!Exec.Pool} (default
          [Domain.recommended_domain_count ()]).  [jobs = 1] takes the
          exact sequential path.  Results are bit-identical for any
          value: the sweep is order-preserving and candidate ranking
          totally orders solutions by objective. *)
  lint : Analysis.Lint.mode;
      (** static-analysis gate over every formulated GP
          ({!Formulate.lint}): [Enforce] (default) turns the whole run
          into an [Error] on any lint error — a malformed instance means
          the formulation code is wrong, not that one choice is unlucky;
          [Warn] logs and continues; [Off] skips the checks.  Solutions
          are additionally certified post-solve
          ({!Analysis.Certificate.check}); points with non-finite
          coordinates or constraint values are discarded in every mode. *)
  presolve : Analysis.Presolve.mode;
      (** interval-propagation presolve over every formulated GP
          ({!Analysis.Presolve.analyze}, DESIGN §13).  [Prune] (default)
          skips statically infeasible pairs — each carries a
          machine-checkable proof, independently re-verified by
          {!Analysis.Certificate.check_prune} before it is acted on
          (a rejected proof solves the pair normally) — and solves the
          reduced problem of feasible pairs, whose redundant constraints
          are dropped.  Pruning alone never changes the selected outcome
          (infeasible pairs cannot rank or warm-start); dropping may
          move the solver's iteration path within tolerance, like
          [warm_start].  [presolve.pruned] /
          [presolve.constraints_dropped] count the verdicts;
          [thistle audit --solve] validates them against the solver
          ({!presolve_disagreements}). *)
  dedupe : bool;
      (** inert (default [true]): nothing in the library or the CLI reads
          it, and the sweep solves every pair once.  Permutation
          enumeration already merges choices with identical cost models,
          so a solve-time cache keyed on program bits never hit.  The
          field stays only because perfbench's stage replay, which still
          deduplicates on its own, checks it; it goes with that replay. *)
  warm_start : bool;
      (** seed each non-pinned placement's solve from its own choice's
          pinned-placement solution (default [true]).  The warm source is
          a function of the enumeration order alone, so results stay
          bit-identical across [jobs]; against cold starts the converged
          optimum may differ in low-order float bits (the iteration path
          changes), never in feasibility or ranking beyond solver
          tolerance.  [solver.warm_starts] counts seeded solves. *)
  gp_kernel : Gp.Solver.kernel;
      (** solver kernel passed to every {!Gp.Solver.solve} (default
          [`Compiled], the production path); [`List] selects the
          closure-per-function reference solver, which agrees with it
          to solver tolerance.  No CLI flag sets it. *)
  solve_deadline_ms : float option;  (** must stay [None]: solves have no deadline. *)
  retries : int;
      (** must stay [0]: solves are not retried (DESIGN §11).  {!run}
          returns [Error] for any other value of these two fields.  They
          stay only because perfbench's stage replay checks them, and go
          with that replay (ROADMAP item 3). *)
  inject : Robust.Inject.t;
      (** deterministic crash injection for testing the quarantine
          machinery (default {!Robust.Inject.none}; no CLI flag sets it);
          decisions are a pure function of (seed, site, provenance),
          never of time, so injected runs stay bit-identical across
          [jobs]. *)
  shard : Sweep.Partition.t;
      (** must stay {!Sweep.Partition.full}: sweeps are not sharded
          (DESIGN §12). *)
  journal : string option;  (** must stay [None]: sweeps are not journaled. *)
  resume : bool;
      (** must stay [false].  {!run} returns [Error] for any other value
          of these three fields, so no caller believes it sharded,
          journaled or resumed a sweep.  They stay only because
          perfbench's stage replay checks them, and go with that replay,
          as [dedupe] will. *)
}

val default_config : config

val compare_scores : float -> float -> int
(** {!Integerize.compare_scores}, the comparator behind the continuous
    shortlist ranking and {!select_best}. *)

val select_best : score:('a -> float) -> 'a list -> 'a option
(** Minimum of [score] under {!compare_scores}; exact ties keep the
    last listed element.  A non-finite-scored element wins only when the
    list contains nothing finite; [None] only for the empty list. *)

val config_fingerprint : config -> string
(** The solver-behavior fingerprint the serve store keys on, with
    {!request_key} (DESIGN §14): tolerance, kernel, warm starts,
    crash injection, presolve mode and the
    communication model (the lowering changes the GP; [contention] is
    excluded — it never changes a solve).  Changing any of them makes
    every stored answer miss, and so does a bump of its leading version,
    made whenever the same settings compute a different served body
    (the [solver:] line's counts included).  [dedupe] does not enter it:
    the sweep solves every pair once.  Exposed for tests; the format is
    not a stability guarantee. *)

val problem_key : Gp.Problem.t -> string
(** Canonical structural key of a program: the exact coefficient and
    exponent bits of every term in formulation order, with constraint
    names excluded (the solver sees names only through the variable set,
    which the exponent maps carry).  Two problems with equal keys are the
    same mathematical program.  The sweep never builds it; it stays for
    perfbench's stage replay and goes with it.  Exposed for tests; the
    key format is not a stability guarantee. *)

val request_key :
  config:config ->
  Archspec.Technology.t ->
  Formulate.arch_mode ->
  Formulate.objective ->
  Workload.Nest.t ->
  string
(** Canonical identity of a whole optimization request — what the serve
    layer's cross-request result store keys on (DESIGN §14).  Covers the
    technology point (exact float bits, all three link parameter
    triples included), the arch mode {e including the
    architecture name} (two arches with identical capacities formulate
    bit-identical GPs, so {!problem_key} alone collides), the objective,
    the full nest (dims, extents, tensors, projections) and every
    enumeration/integerization/lint knob that shapes the report —
    including [comm] and [contention].  Solver
    behavior is versioned separately by {!config_fingerprint}; a result
    cache must key on both.  [jobs] is excluded — it never changes the
    report — and so are [shard]/[journal]/[resume],
    [solve_deadline_ms] and [retries], which {!run} refuses unless they
    hold their defaults.  Exposed for the serve
    store and tests; the format is not a stability guarantee. *)

val usable_solution : Formulate.instance -> Gp.Solver.solution -> bool
(** The sweep's solution gate: the solver found a point (optimal or
    iteration-limited), its objective is finite, and the post-solve
    certificate ({!Analysis.Certificate.check}) finds no hard failure.
    Only usable solutions rank and reach integerization. *)

val presolve_disagreements :
  Formulate.instance -> Analysis.Presolve.t -> Gp.Solver.solution -> string list
(** [presolve_disagreements instance verdict solution] differentially
    validates a presolve verdict of [instance]'s original problem
    against a {!usable_solution} of it (DESIGN §13): a solved
    presolve-infeasible program, a coordinate escaping the propagated
    box, or an eliminated constraint active at the optimum.  Each
    disagreement is one message naming the pair's provenance; [[]]
    means the solver agrees.  Backs [thistle audit --solve]. *)

type report = {
  outcome : Integerize.outcome;
  choices_enumerated : int;
  choices_solved : int;  (** GPs that returned a usable point *)
  best_continuous : float;  (** best continuous objective across choices *)
  solve_totals : Gp.Solver.totals;
      (** solver telemetry summed over {e every} GP solve of the sweep,
          feasible or not, accumulated in deterministic enumeration
          order, one solve per solved pair. *)
  failures : Robust.failure list;
      (** quarantined pairs (crashed solves, crashed integerizations) in
          enumeration order — solve-stage failures
          first, then integerization-stage ones.  The run succeeds as
          long as any pair survives; an empty list means a clean sweep. *)
  pruned : (string * Analysis.Presolve.proof) list;
      (** presolve-pruned pairs in enumeration order, as (provenance,
          infeasibility proof) — empty unless [config.presolve = Prune].
          Every proof was re-verified by
          {!Analysis.Certificate.check_prune} before the pair was
          pruned, and is reported so audits can re-check it. *)
}

val run :
  ?config:config ->
  Archspec.Technology.t ->
  Formulate.arch_mode ->
  Formulate.objective ->
  Workload.Nest.t ->
  (report, string) result

val dataflow :
  ?config:config ->
  Archspec.Technology.t ->
  Archspec.Arch.t ->
  Formulate.objective ->
  Workload.Nest.t ->
  (report, string) result

val codesign :
  ?config:config ->
  Archspec.Technology.t ->
  area_budget:float ->
  Formulate.objective ->
  Workload.Nest.t ->
  (report, string) result
