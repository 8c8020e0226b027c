(** Posynomials: sums of monomials with positive coefficients.

    The representation is normalized — like terms (equal exponent
    vectors) merged, terms sorted by exponent vector — except that
    {!mul_monomial} and {!div_monomial} keep their argument's term order
    (a solver sums terms in this order).  {!equal} and {!compare} look
    at the normal form, so they are mathematical equality and order
    modulo floating-point rounding.  Every term is
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
(** Sorted, like terms merged; in their argument's order after
    {!mul_monomial} and {!div_monomial}. *)

val is_zero : t -> bool

val add : t -> t -> t

val sum : t list -> t

val mul : t -> t -> t

val mul_monomial : Monomial.t -> t -> t
(** Keeps the terms' order, which need not be sorted afterwards:
    [mul_monomial (x^-1) (x*y + z)] is [y + x^-1*z]. *)

val div_monomial : t -> Monomial.t -> t
(** Posynomial divided by a monomial is a posynomial.  Keeps the terms'
    order, like {!mul_monomial}. *)

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
(** Equality of the normal forms, whatever the term order. *)

val compare : t -> t -> int
(** Total order on the normal forms. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
