(** Search-based mapping exploration — the role Timeloop's Mapper plays in
    the paper's comparison (Figs. 4 and 7).

    The search samples random mappings (uniform ordered factorizations of
    each dim across the four canonical levels, uniform random loop
    permutations), scores the valid ones with {!Accmodel.Evaluate}, and
    terminates on either a trial budget ("timeout") or a number of
    consecutive non-improving trials (the "victory condition"), matching
    Timeloop Mapper's knobs.  A seeded PRNG makes runs reproducible. *)

type criterion = Min_energy | Min_delay | Min_edp

type config = {
  max_trials : int;  (** total mapping samples, valid or not *)
  victory_condition : int;  (** stop after this many non-improving trials *)
  seed : int;
}

val default_config : config
(** 100000 trials and a victory condition of 100000, the values the paper
    passes to Timeloop Mapper (scaled-down runs should override). *)

type result = {
  best : (Mapspace.Mapping.t * Accmodel.Evaluate.t) option;
  trials : int;  (** trials actually executed *)
  valid_trials : int;  (** mappings that fit the architecture *)
  improvements : int;  (** times the incumbent was replaced *)
}

val random_mapping :
  Random.State.t -> Workload.Nest.t -> Mapspace.Mapping.t
(** One uniform sample from the canonical mapping space (factor chains and
    permutations); not necessarily valid for any architecture. *)

val score : criterion -> Accmodel.Evaluate.t -> float

val search :
  ?config:config ->
  comm:Archspec.Link.comm_model ->
  Archspec.Technology.t ->
  Archspec.Arch.t ->
  criterion ->
  Workload.Nest.t ->
  result
(** The sequential search: one seeded stream under [config]'s budgets.
    Every mapping is scored by {!Accmodel.Evaluate.evaluate} under the
    delay model [comm], so a comparison with Thistle passes the
    optimizer's own model. *)

val search_parallel :
  ?config:config ->
  ?domains:int ->
  comm:Archspec.Link.comm_model ->
  Archspec.Technology.t ->
  Archspec.Arch.t ->
  criterion ->
  Workload.Nest.t ->
  result
(** Multi-threaded exploration, as Timeloop's Mapper runs it (Section IV:
    "spawns a given number of threads and each thread explores parts of
    the search space"): the trial budget is split across [domains]
    independently seeded streams run as a batch on the shared
    {!Exec.Pool}, and the per-stream incumbents are merged in stream
    order.  Deterministic for a fixed [(config, domains)] pair regardless
    of scheduling.  [domains] defaults to the number of recognized CPUs,
    capped at 8, and is additionally clamped to [max config.max_trials 1]
    so no stream ever owns zero trials (degenerate splits would otherwise
    change the victory-condition semantics versus the sequential path); a
    budget of [<= 1] trial runs {!search}'s exact sequential path. *)

val exhaustive :
  comm:Archspec.Link.comm_model ->
  Archspec.Technology.t ->
  Archspec.Arch.t ->
  criterion ->
  Workload.Nest.t ->
  max_points:int ->
  (Mapspace.Mapping.t * Accmodel.Evaluate.t) option
(** Full enumeration of factorizations and (level-1, level-3) permutations
    for tiny nests; raises [Invalid_argument] when the space exceeds
    [max_points].  Used to validate the random search in tests. *)
