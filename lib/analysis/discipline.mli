(** The DGP discipline checker — static validation of a formulated
    geometric program before it reaches the solver (the role CVXPY's DGP
    ruleset plays for the paper's implementation).

    Well-formedness is not checked again here: every
    {!Symexpr.Monomial} has a finite positive coefficient and finite
    exponents by construction, and {!Gp.Problem.make} refuses an empty
    objective or inequality and empty or duplicate constraint names.
    What remains are the checks that need the whole program, each
    reported as a {!Diagnostic.t}:

    - trivially infeasible constant constraints: an all-constant
      inequality with value [> 1] or a constant equality [<> 1] can never
      be satisfied (errors); satisfiable constant constraints are vacuous
      and reported as warnings;
    - unbounded-below-in-log-space objectives: a variable whose objective
      exponents are all positive needs a lower bound from some constraint
      (a negative exponent in an inequality, or membership in an
      equality), and symmetrically for all-negative exponents — otherwise
      the infimum is approached only as the variable escapes to [0] or
      [infinity] and the solver diverges (errors);
    - a variable mentioned by no constraint at all, unless its objective
      exponents self-bound it (mixed signs), is reported with the above;
      constraint-only variables are never flagged (one-sided bounds are
      fine when the objective is indifferent). *)

val check : ?provenance:string -> Gp.Problem.t -> Diagnostic.t list
(** Empty on a well-formed program. *)
