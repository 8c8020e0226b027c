(** Posynomials: sums of monomials with positive coefficients.

    The representation is normalized: like terms (equal exponent vectors)
    are merged and terms are sorted, so structural equality is
    mathematical equality modulo floating-point rounding.  Every term is
    built by a {!Monomial} operation, so every coefficient is finite
    positive and every exponent finite: an operation whose result would
    leave that range raises [Invalid_argument]. *)

type t

val zero : t
(** The empty sum.  Not a valid GP posynomial by itself, but a convenient
    identity for [add]. *)

val of_monomial : Monomial.t -> t

val const : float -> t

val var : string -> t

val of_monomials : Monomial.t list -> t

val terms : t -> Monomial.t list
(** Sorted, like terms merged. *)

val is_zero : t -> bool

val add : t -> t -> t

val sum : t list -> t

val mul : t -> t -> t

val mul_monomial : Monomial.t -> t -> t

val div_monomial : t -> Monomial.t -> t
(** Posynomial divided by a monomial is a posynomial. *)

val scale : float -> t -> t
(** Raises [Invalid_argument] if the factor is not finite positive or a
    scaled coefficient leaves the finite positive range. *)

val bind : string -> float -> t -> t
(** Partial evaluation of one variable at a positive value; like terms are
    re-merged afterwards. *)

val eval : (string -> float) -> t -> float

val variables : t -> string list
(** Sorted, deduplicated. *)

val num_terms : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
