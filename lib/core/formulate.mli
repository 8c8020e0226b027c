(** Lowering one permutation choice into a constrained geometric program
    (the inner level of the paper's exploration, Eq. 3 / Eq. 5).

    Variables: trip counts [t<level>.<dim>] for every tileable dim at all
    four levels; in co-design mode also the architectural parameters
    [arch.regs], [arch.sram] and [arch.pes]; for the delay objective the
    epigraph variable [delay.T].

    Constraints: per-dim trip-count products equal to extents; [>= 1]
    bounds; register / SRAM capacity; PE count; the Eq. 5 area budget in
    co-design mode; per-component delay bounds for the delay objective.

    The formulation is built through {!Analysis.Dimexpr}, so every
    intermediate quantity carries a unit (data words, pJ, cycles, um2)
    and mixing them records a diagnostic instead of silently producing a
    dimensionally-nonsensical model.  The tagging is erased before the
    problem reaches the solver — the emitted {!Gp.Problem.t} is
    bit-identical to what the untagged construction produced. *)

type objective =
  | Energy
  | Delay
  | Edp
      (** energy-delay product: [E(t) * T] with the delay epigraph
          constraints — still a valid geometric program (the paper notes
          the possibility without evaluating it) *)

type arch_mode =
  | Fixed of Archspec.Arch.t
  | Codesign of { area_budget : float }
      (** co-design under a chip-area budget; the paper uses the Eyeriss
          area *)

type instance = {
  problem : Gp.Problem.t;
  nest : Workload.Nest.t;
  choice : Permutations.choice;
  analysis : Volume.t;
  objective : objective;
  arch_mode : arch_mode;
  comm : Archspec.Link.comm_model;
      (** which delay lowering this instance was built with; the
          integerizer evaluates candidates under the same model *)
  tileable : string list;
  pinned : (string * float) list;
  provenance : string;
      (** human-readable origin — layer, objective, permutations, spatial
          placement — threaded into every diagnostic about this instance *)
  unit_diagnostics : Analysis.Diagnostic.t list;
      (** unit mismatches recorded while building; empty for a
          well-formed model *)
}

val var_arch_regs : string
val var_arch_sram : string
val var_arch_pes : string
val var_delay : string

val build :
  ?placement:(string * float) list ->
  comm:Archspec.Link.comm_model ->
  Archspec.Technology.t ->
  arch_mode ->
  objective ->
  Permutations.plan ->
  Permutations.choice * Volume.t ->
  instance
(** [placement] selects one of the plan's window-dim placements
    ({!Permutations.plan.placements}); defaults to the plan's default
    pinned assignment (window dims at the register level).

    [comm] selects the delay lowering (DESIGN §16; only Delay/Edp
    objectives carry delay constraints).  [Overlapped] emits
    the two aggregate [delay-sram]/[delay-dram] bandwidth bounds —
    bit-identical to the historical formulation.  [Comm_aware] instead
    bounds each link occupancy separately: [delay-reg] (per-MAC operand
    stream over the used PEs), [delay-dram-rd]/[delay-dram-wr] and
    [delay-noc-rd]/[delay-noc-wr], each with the burst overhead folded
    into its coefficient ([Link.cycles_per_word], fractional bursts — a
    sound lower bound on the evaluation side's quantized count).
    Write-back bounds are skipped for nests without read-write traffic.

    Raises [Invalid_argument], naming the pair's provenance and the
    coefficient, when a coefficient leaves the float range, as a
    technology constant times a layer count (first the MAC energy) does
    at an extreme node. *)

val lint : instance -> Analysis.Diagnostic.t list
(** The instance's unit diagnostics followed by the DGP discipline
    check ({!Analysis.Discipline.check}) of its problem; empty when the
    formulation passes both. *)

val solution_env : instance -> Gp.Solver.solution -> string -> float
(** Evaluation environment combining the plan's pinned trip counts with
    the solver's values (1.0 for anything else).  A pinned value wins
    over a solved one, and a name's first binding wins.  Applied to an
    instance and a solution it builds its lookup table once; apply it
    partially to look up many names. *)

val cumulative : instance -> Gp.Solver.solution -> string -> level:int -> float
(** Real-valued tile extent of a dim through the given level, e.g. the
    paper's [S_d] for [level = 2].  Like {!solution_env}, partial
    application to an instance and a solution builds the lookup once. *)
