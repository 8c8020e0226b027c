(** Symbolic data-footprint and data-volume expressions — the paper's
    Algorithm 1, generalized over the nest's tensors and the canonical
    4-level hierarchy.

    Trip counts are symbolic variables named by {!Mapspace.Level.trip_var}
    ([t<level>.<dim>]); the expressions produced here become the capacity
    constraints and the objective of the geometric program.

    The construction per tensor and temporal level [l], given the
    footprint at level [l-1], walks the level's permutation inner to
    outer:

    - while the copy can still be hoisted, iterators absent from the
      tensor reference are skipped;
    - the innermost present iterator folds into the footprint
      ([replace c -> c_l * c], the sliding-window union) and stops
      hoisting;
    - every remaining iterator multiplies the volume (and present ones
      also extend the footprint).

    A level permutation lists only the iterators actually tiled at that
    level (untiled iterators never generate loops); spatial trip counts
    multiply volumes only through dims present in the tensor (multicast). *)

type volume = {
  prefix : Symexpr.Monomial.t;
      (** product of the trip counts surrounding the hoisted copy *)
  body : Symexpr.Footprint.t;  (** footprint of one (union) copy *)
}

val volume_posynomial : volume -> Symexpr.Posynomial.t
(** The relaxed (posynomial) view used in the GP objective. *)

val volume_eval_exact : (string -> float) -> volume -> float
(** Exact evaluation, halo constants included. *)

type tensor_volumes = {
  tensor : string;
  read_write : bool;
  register_footprint : Symexpr.Footprint.t;
      (** per-PE register-buffer words: footprint of the level-0 tile *)
  sram_footprint : Symexpr.Footprint.t;
      (** SRAM-buffer words: footprint of the tile through the spatial
          level *)
  sram_to_reg : volume;
      (** words read from SRAM into register files over the whole
          execution (multicast counted once); read-write tensors move the
          same volume back *)
  dram_to_sram : volume;
}

type t = {
  nest : Workload.Nest.t;
  pe_perm : string list;  (** level-1 permutation, outer to inner *)
  dram_perm : string list;  (** level-3 permutation, outer to inner *)
  per_tensor : tensor_volumes list;
}

val analyze :
  Workload.Nest.t -> pe_perm:string list -> dram_perm:string list -> t
(** [analyze nest ~pe_perm ~dram_perm] builds the symbolic expressions for
    every tensor of the nest over the canonical levels
    [[Temporal []; Temporal pe_perm; Spatial; Temporal dram_perm]]: the
    {!compose} of {!inner_half} and of {!outer_half} on the SRAM
    footprints the inner half hands up.  Each permutation must be a list
    of distinct nest dims (a subset: dims not listed are untiled at that
    level).  Raises [Invalid_argument] otherwise. *)

val construct :
  level:int ->
  perm:string list ->
  tensor:Workload.Nest.tensor ->
  Symexpr.Footprint.t ->
  Symexpr.Footprint.t * volume
(** One step of Algorithm 1: [(df_l, dv_l)] from the lower-level footprint
    and the level's permutation (outer to inner).  Exposed for testing
    against the paper's Table I trace. *)

val register_tile_footprint : Workload.Nest.tensor -> Symexpr.Footprint.t
(** [DF^0]: the footprint of one register tile in level-0 trip counts. *)

(** {2 Arbitrary level structures}

    The paper's Algorithm 1 supports any number of tiling levels; the
    canonical 4-level hierarchy above is one instance.  The generic
    analysis takes the level structure innermost-first — [Temporal perm]
    levels carry an outer-to-inner iterator permutation, [Spatial] levels
    have no meaningful order — and produces, per tensor, the symbolic
    footprint and fill volume at every temporal boundary (level index
    [>= 1]), with the same semantics as {!Accmodel.Counts}. *)

type level_spec = Temporal of string list | Spatial

type boundary = {
  level : int;
  footprint : Symexpr.Footprint.t;
      (** buffer words at this boundary: tile through [level - 1] *)
  fill : volume;  (** words moved into the storage below across the run *)
}

type general = {
  g_nest : Workload.Nest.t;
  g_levels : level_spec list;
  g_tensors : (string * bool * boundary list) list;
      (** (tensor, read_write, one entry per temporal level >= 1) *)
}

val analyze_general : Workload.Nest.t -> levels:level_spec list -> general
(** Raises [Invalid_argument] if level 0 is not temporal, or a
    permutation is malformed. *)

(** {2 The canonical analysis in two halves}

    A level's footprint and fill depend only on that level's permutation
    and the footprint handed up from the levels inside it; the levels
    above enter a fill only as trip counts, by kind.  So {!analyze}
    splits at the SRAM boundary: the inner half depends on [pe_perm]
    alone, the outer half on the SRAM footprints and [dram_perm] alone,
    and a permutation enumeration can analyze each level's orders once
    and compose the pairs. *)

type half = {
  perm : string list;  (** the half's level permutation, outer to inner *)
  boundaries : boundary list;
      (** per tensor, in nest order: boundary 1 (inner half) or 3 (outer
          half) *)
  above : Symexpr.Footprint.t list;
      (** per tensor, in nest order: the footprint of the tile through
          the half's top level — the SRAM footprints for the inner half *)
}

val inner_half : Workload.Nest.t -> pe_perm:string list -> half
(** Levels 1 and 2: the register footprint and the SRAM-to-register fill
    of every tensor, and the SRAM footprints above them.  Raises
    [Invalid_argument] on a malformed permutation. *)

val outer_half :
  Workload.Nest.t ->
  sram_footprints:Symexpr.Footprint.t list ->
  dram_perm:string list ->
  half
(** Level 3: the SRAM footprint and the DRAM-to-SRAM fill of every
    tensor, from its SRAM footprint (nest order).  Raises
    [Invalid_argument] on a malformed permutation. *)

val compose : Workload.Nest.t -> inner:half -> outer:half -> t
(** The analysis of [(inner.perm, outer.perm)] from its two halves;
    equal to {!analyze} whenever [outer] was built on [inner.above]. *)
