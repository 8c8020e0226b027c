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
          reduced problem of feasible pairs (monotone variables pinned,
          redundant constraints dropped), with fixed values re-injected
          into every solution.  [Check] solves everything exactly as
          [Off] does and differentially validates the verdicts against
          the solver's findings: a solved presolve-infeasible pair, a
          solution escaping the propagated box, or an eliminated
          constraint active at an optimum turns the whole run into an
          [Error].  Pruning alone never changes the selected outcome
          (infeasible pairs cannot rank or warm-start); fixing and
          dropping may move the solver's iteration path within
          tolerance, like [warm_start].
          [presolve.pruned] / [presolve.vars_fixed] /
          [presolve.constraints_dropped] count the verdicts. *)
  dedupe : bool;
      (** solve each structurally identical GP once per sweep (canonical
          coefficient/exponent key, constraint names excluded) and replay
          the cached solution and telemetry for its duplicates (default
          [true]).  Replays are bit-identical to re-solving, so results
          do not depend on this flag; [solver.cache_hits] counts them. *)
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
  solve_deadline_ms : float option;
      (** cooperative wall-clock budget per GP solve (default [None]):
          checked at outer-iteration boundaries, so a solve may overrun
          by one centering.  A deadline hit retries per [retries], then
          quarantines the pair (DESIGN §11).  Positive budgets make the
          set of surviving pairs timing-dependent; determinism tests use
          injection instead. *)
  retries : int;
      (** extra solve attempts after a crash or deadline hit before the
          pair is quarantined (default 1; negative behaves as 0).
          Retried attempts escalate the solver's initial KKT
          regularization from 1e-9 to 1e-5. *)
  inject : Robust.Inject.t;
      (** deterministic fault injection for testing the quarantine
          machinery (default {!Robust.Inject.none}); decisions are a pure
          function of (seed, kind, site, provenance, attempt), never of
          time, so injected runs stay bit-identical across [jobs]. *)
  shard : Sweep.Partition.t;
      (** which slice of the (choice x placement) work-list this run
          owns (default {!Sweep.Partition.full}).  Shards partition by
          {e whole choices} so every warm-start source is shard-local;
          a shard run formulates, solves, journals and reports only its
          own pairs — the globally best design point comes from merging
          the shard journals ({!Sweep.Merge}, [thistle merge]) and
          resuming, which replays every pair and re-runs ranking and
          integerization over the full set, byte-identical to an
          unsharded run. *)
  journal : string option;
      (** append-only JSONL completion journal (default [None]).  Every
          pair completed by this run — solved, replayed or quarantined —
          is appended as it finishes and flushed, so a killed run loses
          at most the pairs still in flight.  Entry order in a parallel
          run is timing-dependent; entry {e content} is a function of
          the workload and configuration alone (DESIGN §12). *)
  resume : bool;
      (** replay journal entries instead of re-solving (default
          [false]; requires [journal] — {!run} returns [Error] for
          [resume] without one).  An entry is replayed only when
          its fingerprint — {!Sweep.Journal.fingerprint} of the pair's
          {!problem_key} and this config's solver fingerprint — still
          matches, so stale pairs (changed formulation, tolerance,
          kernel, retry or injection policy) are re-solved and
          re-journaled.  [sweep.journal_hits] / [sweep.journal_stale]
          count the two cases; [sweep.pairs_solved] counts physical
          solves this run. *)
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
(** The solver-behavior fingerprint entering every journal entry's
    {!Sweep.Journal.fingerprint}: tolerance, kernel, reuse policy,
    deadline/retry/injection settings, and the communication model (the
    lowering changes the GP, so journaled fates of one model never
    replay under the other; [contention] is excluded — it never changes
    a solve).  Changing any of them invalidates
    journaled pairs on the next resume.  Exposed for tests; the format
    is not a stability guarantee. *)

val problem_key : Gp.Problem.t -> string
(** Canonical structural key backing [dedupe]: the exact coefficient and
    exponent bits of every term in formulation order, with constraint
    names excluded (the solver sees names only through the variable set,
    which the exponent maps carry).  Two problems with equal keys are the
    same mathematical program, so one solve serves both.  Exposed for
    tests; the key format is not a stability guarantee. *)

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
    cache must key on both.  [jobs]/[shard]/[journal]/[resume] are
    excluded — they never change the report.  Exposed for the serve
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
    means the solver agrees.  Backs [presolve = Check] and
    [thistle presolve --check]. *)

type report = {
  outcome : Integerize.outcome;
  choices_enumerated : int;
  choices_solved : int;  (** GPs that returned a usable point *)
  best_continuous : float;  (** best continuous objective across choices *)
  solve_totals : Gp.Solver.totals;
      (** solver telemetry summed over {e every} GP solve of the sweep,
          feasible or not, accumulated in deterministic enumeration
          order.  For retried pairs only the final attempt's stats are
          counted — one logical solve per pair, mirroring dedupe
          replays; [robust.retries] counts the extra attempts. *)
  failures : Robust.failure list;
      (** quarantined pairs (crashed or deadline-exceeded solves, crashed
          integerizations) in enumeration order — solve-stage failures
          first, then integerization-stage ones.  The run succeeds as
          long as any pair survives; an empty list means a clean sweep.
          Dedupe replicas of a quarantined representative appear here
          too, relabeled with their own provenance. *)
  pruned : (string * Analysis.Presolve.proof) list;
      (** presolve-pruned pairs in enumeration order, as (provenance,
          infeasibility proof) — empty unless [config.presolve = Prune].
          Every proof was re-verified by
          {!Analysis.Certificate.check_prune} before the pair was
          pruned, and is journaled with the pair so audits can re-check
          it offline. *)
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
