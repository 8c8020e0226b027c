(** Sound interval arithmetic over the positive reals, specialized to
    monomial/posynomial evaluation for the presolve pass.

    An interval [{lo; hi}] abbreviates the set [{ t | lo <= t <= hi }]
    intersected with the positive axis (GP variables are positive by
    definition; [lo = 0.] means "no lower bound known", [hi = infinity]
    "no upper bound known").  All operations are {e outward}: the result
    interval contains the exact image of the inputs.  Monomials
    [c * prod x^e] are monotone in each variable on the positive axis,
    so endpoint evaluation is exact up to floating-point rounding —
    soundness against rounding is the caller's job (the presolve pass
    keeps decision margins far wider than an ulp; see DESIGN §13).

    The two hazards of naive endpoint arithmetic are handled here:
    [0. *. infinity = nan] (a lower bound of a product with one factor
    0 is 0, an upper bound with one factor infinite is infinite — never
    NaN), and powers of the endpoints ([0. ** -2. = infinity] and
    [infinity ** -2. = 0.] are already the correct monotone limits). *)

type t = {
  lo : float;  (** [>= 0.]; [0.] means no positive lower bound known *)
  hi : float;  (** [>= lo]; [infinity] means no upper bound known *)
}

val full : t
(** The whole positive axis: [{lo = 0.; hi = infinity}]. *)

val make : lo:float -> hi:float -> t
(** Raises [Invalid_argument] unless [0. <= lo <= hi] (NaN rejected). *)

val point : float -> t
(** Degenerate interval [[v, v]]; raises unless [v] is finite positive. *)

val mem : ?slack:float -> float -> t -> bool
(** [mem v t] is [lo <= v <= hi], with each comparison relaxed by the
    relative [slack] (default [0.]): [v >= lo *. (1 - slack)] and
    [v <= hi *. (1 + slack)].  Non-finite [v] is never a member of a
    bounded side. *)

val mul_lo : float -> float -> float
(** Product of two lower bounds with [0. *. infinity = 0.] (sound: if
    one factor can be 0 the product can be 0). *)

val mul_hi : float -> float -> float
(** Product of two upper bounds with [0. *. infinity = infinity]
    (sound: an unbounded factor makes the product unbounded). *)

val mul : t -> t -> t

val pow : t -> float -> t
(** Image of [x ** e] over the interval; [x ** e] is monotone on the
    positive axis (increasing for [e > 0], decreasing for [e < 0]), so
    this is endpoint evaluation with the endpoints swapped for negative
    exponents.  [e = 0.] gives the point interval [1]. *)

val inv : t -> t
(** [pow t (-1.)], spelled out. *)

val monomial : (string -> t) -> Symexpr.Monomial.t -> t
(** Interval of [c * prod x^e] under the per-variable boxes [env]. *)

val posynomial : (string -> t) -> Symexpr.Posynomial.t -> t
(** Termwise sum of {!monomial} intervals. *)

val pp : Format.formatter -> t -> unit
