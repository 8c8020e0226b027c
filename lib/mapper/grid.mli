(** Grid-search architecture-dataflow co-design — the strategy of prior
    co-design frameworks that the paper contrasts with Thistle's
    single-shot formulation (Section II: "heuristic searches or bounded
    grid search, where specific combinations of architectural parameters
    are considered, and dataflow optimization is performed for each").

    The grid enumerates power-of-two register-file and SRAM capacities
    and derives for each pair the largest PE count that fits the area
    budget; each surviving architecture gets an independent mapping
    search with a per-point trial budget.  The total model-evaluation
    count is reported so the cost can be compared against Thistle's
    solver-based approach. *)

type config = {
  trials_per_point : int;  (** mapping-search budget per architecture *)
  seed : int;
  min_regs : int;  (** smallest register file considered (words) *)
  max_regs : int;
  min_sram : int;  (** smallest SRAM considered (words) *)
  max_sram : int;
}

val default_config : config
(** 2000 trials per point, registers 4..1024, SRAM 1 K..256 K words. *)

type point = {
  arch : Archspec.Arch.t;
  best : (Mapspace.Mapping.t * Accmodel.Evaluate.t) option;
}

type result = {
  points : point list;  (** every architecture evaluated, grid order *)
  winner : point option;  (** best by the search criterion *)
  total_trials : int;
}

val architectures :
  Archspec.Technology.t -> config -> area_budget:float -> Archspec.Arch.t list
(** The architecture grid: for each (registers, SRAM) pair of powers of
    two within the configured ranges, the maximal PE count affordable
    under the area budget (pairs that cannot afford one PE are dropped). *)

val search :
  ?config:config ->
  comm:Archspec.Link.comm_model ->
  Archspec.Technology.t ->
  area_budget:float ->
  Search.criterion ->
  Workload.Nest.t ->
  result
