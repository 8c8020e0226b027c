(** Deterministic sharding of the optimizer's pair enumeration.

    The co-design sweep is a pure enumeration over (permutation choice
    x window placement) pairs: pair [i] is choice [i / nplac], placement
    [i mod nplac], in the exact order {!Thistle.Permutations.enumerate}
    produces.  That indexing is the work-list contract every sharding
    and journaling decision hangs off — a pair index names the same
    mathematical program on every machine running the same enumeration.

    A partition [I/N] selects the choices [c] with [c mod N = I - 1]
    (1-based [I]), i.e. whole choices are dealt round-robin across
    shards.  Partitioning by {e choice} rather than by raw pair index is
    what keeps shard runs bit-identical to the corresponding slice of an
    unsharded run: the solver's warm-start source for a non-pinned
    placement is its own choice's pinned solution, so a choice-complete
    shard never reaches across the partition boundary.  Round-robin
    (rather than contiguous blocks) spreads structurally similar
    neighbouring choices across shards, balancing work. *)

type t = {
  index : int;  (** 1-based shard number, [1 <= index <= count] *)
  count : int;  (** total number of shards, [>= 1] *)
}

val full : t
(** The trivial partition [1/1]: every choice selected. *)

val parse : string -> (t, string) result
(** [parse "I/N"] — 1-based; fails unless [1 <= I <= N]. *)

val to_string : t -> string
(** Inverse of {!parse}: ["I/N"]. *)

val selects : t -> choice:int -> bool
(** Whether 0-based choice index [choice] belongs to this shard. *)

val choice_of : nplac:int -> int -> int
(** Choice index of pair [i]: [i / nplac]. *)

val placement_of : nplac:int -> int -> int
(** Placement index of pair [i]: [i mod nplac]. *)

val is_pinned : nplac:int -> int -> bool
(** Whether pair [i] is its choice's pinned-placement pair (placement
    index 0) — the wave-1 / warm-start source slot. *)

val pair_indices : t -> nplac:int -> npairs:int -> int list
(** Global pair indices owned by this shard, ascending.  [npairs] must
    be [nchoices * nplac]; the union over [index = 1..count] is exactly
    [0 .. npairs - 1] and the shards are pairwise disjoint. *)
