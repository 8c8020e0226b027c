(** Monomials: [c * prod_i x_i ^ a_i] with positive coefficient [c], named
    variables [x_i] and real exponents [a_i].

    Every monomial is finite by construction: each operation that makes
    one refuses, with [Invalid_argument], a coefficient that is not
    finite and positive or an exponent that is not finite — its inputs'
    or its result's, after like factors merge.  So checkers downstream
    need not check again.

    Monomials are the atoms of geometric programming: products, quotients
    and real powers of monomials are monomials.  The representation is
    normalized — variables sorted by name, zero exponents dropped — so
    structural equality coincides with mathematical equality up to
    floating-point rounding of coefficients. *)

type t

val one : t

val const : float -> t
(** [const c] is the constant monomial [c].  Raises [Invalid_argument]
    unless [c] is finite and positive ([infinity > 0.0] holds, so the
    finiteness check is explicit — a non-finite coefficient would poison
    every expression built on top). *)

val var : string -> t
(** [var x] is the monomial [x^1]. *)

val var_pow : string -> float -> t
(** Raises [Invalid_argument] on a non-finite exponent. *)

val make : float -> (string * float) list -> t
(** [make c exps] is [c * prod x^a].  Raises [Invalid_argument] unless
    [c] is finite positive and every exponent finite. *)

val coeff : t -> float

val exponents : t -> (string * float) list
(** Sorted by variable name; no zero exponents. *)

val exponent : t -> string -> float
(** [exponent m x] is the exponent of [x] in [m] (0 when absent). *)

val mentions : t -> string -> bool

val variables : t -> string list

val mul : t -> t -> t
(** Raises [Invalid_argument] if the product's coefficient leaves the
    finite positive range (overflow or underflow to 0), or a merged
    exponent is not finite. *)

val div : t -> t -> t
(** Raises like {!mul}. *)

val pow : t -> float -> t
(** Raises [Invalid_argument] if the power is not finite, or if the
    resulting coefficient leaves the finite positive range (overflow or
    underflow to 0), or a resulting exponent is not finite. *)

val scale : float -> t -> t
(** Raises [Invalid_argument] if the factor is not finite positive, or
    the scaled coefficient leaves the finite positive range. *)

val subst : string -> t -> t -> t
(** [subst x m' m] replaces each occurrence [x^a] in [m] by [m'^a].  Used
    to implement Algorithm 1's [replace(expr, c, c'*c)] by substituting
    [x := x * x']. *)

val bind : string -> float -> t -> t
(** [bind x v m] folds the variable [x] into the coefficient at value [v]
    (partial evaluation).  Raises [Invalid_argument] unless [v] is finite
    positive. *)

val eval : (string -> float) -> t -> float

val is_constant : t -> bool

val equal : t -> t -> bool
(** Exact structural equality (coefficients compared with [=]). *)

val compare : t -> t -> int
(** Total order: by exponent vector, then coefficient.  Monomials with
    equal exponent vectors but different coefficients compare unequal. *)

val compare_exponents : t -> t -> int
(** Order on exponent vectors only, ignoring the coefficient — used to
    sort and merge like terms in posynomials.  It is polymorphic
    [compare] on the {!exponents} lists: lexicographic by variable name,
    then exponent, a prefix first. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
