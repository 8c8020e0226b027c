(** Exact data-movement counts for a concrete mapping, following the
    semantics of the paper's Algorithm 1 with integer trip counts.

    For each tensor and each temporal tiling level above the innermost,
    the copy into the lower storage is hoisted above every loop of that
    level that does not appear in the tensor reference; the innermost
    {e present} loop is folded into the copied footprint (sliding-window
    union), and all outer loops multiply the volume.  Spatial levels
    multiply only the factors of present dims — absent dims are served by
    multicast (and, for read-write tensors, by spatial reduction), as in
    the paper's model.

    Footprints use the exact affine extents including the halo constant
    ([sum stride*extent - sum stride + 1] per projection); nothing is
    relaxed here, unlike the posynomial view used by the optimizer. *)

type tensor_counts = {
  tensor : string;
  read_write : bool;
  fills : (int * float) list;
      (** [(level, words)] for each temporal level [l >= 1]: words copied
          {e into} the storage below level [l] across the whole execution
          (one direction; read-write tensors drain the same volume back) *)
  copies : (int * float) list;
      (** [(level, n)]: number of copy executions behind the fill volume
          — [fills = copies * copy_words] exactly (all three are
          integer-valued floats) *)
  copy_words : (int * float) list;
      (** [(level, words)]: words moved by one copy at that boundary;
          identical across copies because the tile shape does not depend
          on the loop indices *)
  footprints : (int * float) list;
      (** [(level, words)] buffer size the tensor needs at each level
          boundary: the exact footprint of the tile defined by levels
          [0..l-1] (per PE for levels at or below the spatial level) *)
}

type t = {
  macs : float;
  pes_used : int;
  per_tensor : tensor_counts list;
}

type counts = t

(** The count arithmetic compiled over dim indices: the nest's dims
    become indices, each tensor's projections [(stride, dim)] arrays
    with a bitmap of the dims it mentions, and the level structure a
    kind per level, inner-to-outer permutation arrays and a mutable int
    factor matrix.  Two stages compute from the factors — {!footprints},
    then {!fills} — each at most once until a factor or permutation
    changes again, and the totals read what they left (they raise
    [Invalid_argument] when [level] is not a temporal boundary or the
    stage has not run).  {!compute} and [Evaluate.evaluate] are wrappers
    over it; a candidate loop rewrites the factor matrix in place and
    reruns the stages without building a mapping.

    Float operations run in a fixed order, which the report goldens pin
    bit for bit: a level's factors multiply in the order the mapping
    lists them, tensors go in nest order and projections in theirs, and
    each sum accumulates tensor by tensor.

    A kernel is mutable scratch: use one per domain. *)
module Kernel : sig
  type t

  val compile : Workload.Nest.t -> Mapspace.Level.kind list -> t
  (** Levels innermost first.  Every factor starts at 1 and every
      temporal level's permutation at the nest's declaration order. *)

  val of_mapping : Workload.Nest.t -> Mapspace.Mapping.t -> t
  (** The kernel of a mapping {!Mapspace.Mapping.validate} accepted
      (raises on undeclared dims otherwise). *)

  val dim_index : t -> string -> int option
  (** Index of a dim in the nest's declaration order. *)

  val set_factor : t -> level:int -> dim:int -> int -> unit

  val set_perm : t -> level:int -> string list -> bool
  (** Sets a temporal level's permutation, written outer to inner as in
      {!Mapspace.Mapping.level}.  Returns [false], leaving the kernel
      unchanged, unless the list is a permutation of the nest's dims. *)

  val valid_factors : t -> bool
  (** Every factor is at least 1 and each dim's factors multiply to its
      extent — the factor half of {!Mapspace.Mapping.validate}. *)

  val spatial_size : t -> int
  (** Product of the spatial levels' factors: the number of PEs used. *)

  val macs : t -> float

  val footprints : t -> unit
  (** Stage 1: tile extents and every tensor's footprint at every
      temporal boundary.  A no-op if already run on these factors. *)

  val fills : t -> unit
  (** Stage 2: fill volume, copy count and copy size of every tensor at
      every temporal boundary, after {!footprints}.  A no-op if already
      run on these factors. *)

  val footprint_total : t -> level:int -> float
  (** Sum over tensors of the footprint at a temporal boundary [level]
      (after {!footprints}); see {!reg_words_per_pe}. *)

  val fill_total : ?rw_only:bool -> t -> level:int -> float
  (** Sum over tensors (read-write ones only under [rw_only]) of the
      fill volume at a temporal boundary (after {!fills}). *)

  val bursts : ?rw_only:bool -> t -> level:int -> burst_words:float -> float
  (** Bursts needed to move one direction of a boundary's traffic (after
      {!fills}): per tensor, [copies * ceil(copy_words / burst_words)] —
      each copy is quantized to whole bursts on its own, matching what
      the timed refsim observes walking the schedule. *)

  val pack : t -> counts
  (** The staged results as a {!counts} record (after {!fills}). *)
end

val compute : Workload.Nest.t -> Mapspace.Mapping.t -> (t, string) result
(** Validates the mapping against the nest, then runs the {!Kernel} on
    it.  Accepts any level structure. *)

(* Canonical-hierarchy accessors (4 levels: reg, pe-temporal, spatial,
   dram-temporal).  All raise [Invalid_argument] if the mapping did not
   have the canonical structure. *)

val sram_to_reg : t -> float
(** Total words read from SRAM into register files (multicast counted
    once), summed over tensors. *)

val reg_to_sram : t -> float
(** Write-back traffic of read-write tensors. *)

val dram_to_sram : t -> float

val sram_to_dram : t -> float

val reg_words_per_pe : t -> float
(** Register buffer words needed per PE (sum over tensors). *)

val sram_words_used : t -> float

val pp : Format.formatter -> t -> unit
