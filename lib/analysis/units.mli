(** A small unit algebra for dimensional analysis of the GP formulation.

    Quantities in Thistle's programs are products of powers of five base
    units: data {e elements} (16-bit words moved or stored), {e bytes}
    (raw storage, for spec-level accounting), {e picojoules} (energy),
    {e cycles} (delay) and {e um^2} (silicon area).  A unit is a vector
    of real exponents over these bases; multiplying quantities adds the
    vectors, raising to a power scales them.

    Trip-count variables are dimensionless; technology constants carry
    the units of Table III (e.g. a per-access energy is [pJ/elem], an
    SRAM bandwidth is [elem/cyc]).  The {!Dimexpr} combinators propagate
    these vectors through the formulation and flag any sum or comparison
    that mixes incompatible units. *)

type base = Elements | Bytes | Picojoules | Cycles | Square_microns

type t
(** A unit: a product of base-unit powers.  Normalized (zero exponents
    dropped), so {!equal} is structural. *)

val dimensionless : t

val elements : t
val bytes : t
val pj : t
val cycles : t
val um2 : t

val mul : t -> t -> t

val div : t -> t -> t

val pow : t -> float -> t
(** Raises [Invalid_argument] on a non-finite power. *)

val inv : t -> t

val exponents : t -> (base * float) list
(** Sorted by base, no zero exponents. *)

val is_dimensionless : t -> bool

val equal : t -> t -> bool
(** Exponent vectors compared within a small tolerance (1e-9), so units
    reassembled through [mul]/[div]/[pow] round-trips compare equal. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
