(** Geometric programs in standard form:

    minimize a posynomial [f0(t)], subject to posynomial inequalities
    [f_i(t) <= 1] and monomial equalities [g_j(t) = 1], over implicit
    positive variables [t].

    Constraints carry names so that solver diagnostics and feasibility
    reports can point at the violated constraint. *)

type t

val make :
  objective:Symexpr.Posynomial.t ->
  ?ineqs:(string * Symexpr.Posynomial.t) list ->
  ?eqs:(string * Symexpr.Monomial.t) list ->
  unit ->
  t
(** Raises [Invalid_argument] if the objective or any inequality is the
    zero posynomial, if any constraint name is empty, or if a name is
    used by more than one constraint (inequalities and equalities share
    one namespace) — diagnostics and violation reports key on unique
    names.  Coefficients and exponents need no check here: every
    {!Symexpr.Monomial} is finite by construction. *)

val objective : t -> Symexpr.Posynomial.t

val ineqs : t -> (string * Symexpr.Posynomial.t) list

val eqs : t -> (string * Symexpr.Monomial.t) list

val le : Symexpr.Posynomial.t -> Symexpr.Monomial.t -> Symexpr.Posynomial.t
(** [le p m] normalizes the DGP constraint [p <= m] into [p / m <= 1]. *)

val le_const : Symexpr.Posynomial.t -> float -> Symexpr.Posynomial.t
(** [le_const p c] normalizes [p <= c] (with [c > 0]). *)

val eq : Symexpr.Monomial.t -> Symexpr.Monomial.t -> Symexpr.Monomial.t
(** [eq m1 m2] normalizes [m1 = m2] into [m1 / m2 = 1]. *)

val variables : t -> string list
(** All variables mentioned, sorted. *)

val filter_ineqs : (string -> bool) -> t -> t
(** Keep only the inequalities whose name satisfies the predicate
    (presolve's redundant-constraint elimination); the objective and
    equalities are untouched.  Dropping constraints relaxes the program
    — the caller owns the proof that the dropped ones were implied. *)

val violations : ?tol:float -> t -> (string -> float) -> (string * float) list
(** Constraints violated at the given point, with their violation
    magnitude: [f_i(t) - 1] for inequalities, [|log g_j(t)|] for
    equalities.  A constraint whose evaluation is non-finite (or, for an
    equality, non-positive, whose log would be NaN) is reported with
    magnitude [infinity] — never as feasible.  Empty when the point is
    feasible within [tol] (default 1e-6, relative). *)

val is_feasible : ?tol:float -> t -> (string -> float) -> bool

val pp : Format.formatter -> t -> unit
