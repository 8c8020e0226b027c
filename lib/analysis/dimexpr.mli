(** Unit-tagged monomials and posynomials — the dimensional-analysis pass.

    The formulation layer builds its symbolic expressions through these
    combinators instead of raw {!Symexpr} operations.  Each expression
    carries a {!Units.t}; products and powers propagate units, while sums,
    constraints and objectives {e check} them and record a diagnostic in
    the ambient {!ctx} on mismatch (e.g. adding an energy to a buffer
    footprint, or bounding a cycle count by a word capacity).

    Construction never fails: on mismatch the expression keeps the
    left-hand unit and the diagnostic is reported through
    {!diagnostics}, so a single malformed constraint yields a complete
    report rather than an exception mid-build.

    The underlying [Symexpr] values are exactly what the untagged
    operations would build — tagging is erased by {!posy}, so a
    formulation refactored onto this layer produces bit-identical
    problems. *)

type ctx
(** Collector for unit-mismatch diagnostics of one formulation. *)

val ctx : ?provenance:string -> unit -> ctx

val diagnostics : ctx -> Diagnostic.t list
(** Diagnostics recorded so far, in emission order. *)

(** {2 Monomials} *)

type mono

val mono : Units.t -> Symexpr.Monomial.t -> mono
(** Tag an existing monomial — an axiom of the analysis; use for leaves
    whose unit is known by construction (trip-count products, technology
    constants). *)

val mconst : Units.t -> float -> mono

val mvar : Units.t -> string -> mono

val mmul : mono -> mono -> mono

val mpow : mono -> float -> mono

val mscale : Units.t -> float -> mono -> mono
(** [mscale u c m] multiplies by the constant [c] carrying unit [u]. *)

val mono_unit : mono -> Units.t

(** {2 Posynomials} *)

type t

val of_posynomial : Units.t -> Symexpr.Posynomial.t -> t
(** Tag an existing posynomial (axiom, like {!mono}). *)

val of_mono : mono -> t

val add : ctx -> what:string -> t -> t -> t
(** Records a diagnostic when the units differ; [what] names the quantity
    under construction for the message. *)

val sum : ctx -> what:string -> Units.t -> t list -> t
(** Sum with an explicit expected unit — every summand is checked against
    it, and the unit of an empty sum is well-defined. *)

val mul_mono : mono -> t -> t

val scale : Units.t -> float -> t -> t
(** Like {!mscale}, for posynomials. *)

val bind : string -> float -> t -> t

val posy : t -> Symexpr.Posynomial.t

val unit_of : t -> Units.t

(** {2 Unit-checked constraint and objective lowering} *)

val le : ctx -> name:string -> t -> mono -> Symexpr.Posynomial.t
(** [le ctx ~name p m] checks that [p] and [m] share a unit, then
    normalizes the DGP constraint [p <= m] into [p / m <= 1]. *)

val eq : ctx -> name:string -> mono -> mono -> Symexpr.Monomial.t
(** [eq ctx ~name m1 m2] checks units, then normalizes [m1 = m2] into
    [m1 / m2 = 1]. *)

val objective : ctx -> expected:Units.t -> t -> Symexpr.Posynomial.t
(** Checks the objective carries the unit the chosen criterion implies
    (pJ for energy, cycles for delay, pJ*cyc for EDP). *)
