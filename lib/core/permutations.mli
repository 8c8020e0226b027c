(** Enumeration and pruning of tile-loop permutation choices (the outer
    level of the paper's design-space exploration).

    Pruning, as in Section III:

    - {e stencil dims} (the small window iterators of halo projections,
      e.g. [r]/[s] of a convolution) are never tiled: their full extent is
      pinned to the register level;
    - extent-1 dims generate no loops at all;
    - choices whose symbolic cost model is identical (the "CanHoist false
      for all tensors" argument) are deduplicated: two choices are equal
      when every tensor's fill volumes print to the same posynomials;
    - choices equivalent under a nest symmetry (e.g. the simultaneous
      [h<->w], [r<->s] swap of a square convolution) are pruned.

    A level's fills depend only on its own permutation and the footprint
    handed up from below, so each level permutation is analyzed once
    ({!Volume.inner_half}, {!Volume.outer_half}) and a pair's analysis
    is composed from its halves, not recomputed: about [2 * n!]
    half-analyses for [n] tileable dims instead of [(n!)^2] full ones. *)

type choice = { pe_perm : string list; dram_perm : string list }

type plan = {
  nest : Workload.Nest.t;
  tileable : string list;
      (** dims whose trip counts are free variables at every level *)
  pinned : (string * float) list;
      (** default trip-count assignments for untiled / unit dims: window
          dims fully at the register level *)
  placements : (string * float) list list;
      (** alternative pinned assignments, one per way of placing each
          window dim's full extent at the register or the spatial level
          (never split, per the paper's pruning rule).  The first element
          is [pinned]. *)
  choices : (choice * Volume.t) list;  (** pruned, with their analyses *)
  raw_count : int;  (** permutation pairs before pruning *)
}

val stencil_dims : Workload.Nest.t -> string list
(** Dims appearing in multi-iterator (halo) projections with the smallest
    extent among the projection's iterators — the window dims that the
    paper leaves untiled. *)

val default_symmetries : Workload.Nest.t -> (string * string) list list
(** Dim swaps (applied simultaneously within one list) that leave the nest
    invariant, detected structurally; e.g. [[["h","w"; "r","s"]]] for a
    square convolution. *)

val enumerate :
  ?untiled:string list ->
  ?symmetries:(string * string) list list ->
  ?max_choices:int ->
  Workload.Nest.t ->
  plan
(** [enumerate nest] lists pruned permutation choices with their symbolic
    analyses.  [untiled] overrides {!stencil_dims}; [symmetries] overrides
    {!default_symmetries}; [max_choices] truncates the (deterministic)
    enumeration as a safety valve. *)

val pinned_env : plan -> string -> float option
(** Lookup into the plan's pinned assignments. *)
