(** Post-solve solution certificates.

    After the interior-point solver returns a point, this pass checks it
    independently of the solver's own bookkeeping:

    - the objective value and every variable must be finite and positive;
    - constraint violations come from {!Gp.Problem.violations}, which
      reports non-finite evaluations as infinite violations — those are
      hard failures (errors); finite violations beyond the tolerance are
      warnings (interior-point output is approximate by construction).

    Optimality is certified by the solver itself: every solve's duality
    gap is in {!Gp.Solver.stats} and in the [max-gap=] field of each
    report's [solver:] line. *)

type t = {
  objective_value : float;
  violations : (string * float) list;
      (** violated constraints at the point (non-finite evaluations
          included as [infinity]) *)
  max_violation : float;  (** [0.] when feasible *)
  diagnostics : Diagnostic.t list;
}

val check :
  ?tol:float ->
  ?provenance:string ->
  Gp.Problem.t ->
  (string -> float) ->
  t
(** [check problem env] certifies the point [env].  [tol] (default 1e-4)
    is the violation tolerance above which warnings are emitted. *)

val hard_failure : t -> bool
(** True when any diagnostic is an error (non-finite objective, variable
    or constraint evaluation) — such a point must not be ranked. *)

val check_prune : Gp.Problem.t -> Presolve.proof -> (unit, string) result
(** Independently verify a presolve infeasibility proof against the
    original problem, so a buggy propagator can never silently discard
    a feasible pair (the optimizer runs this before acting on any
    [Infeasible] verdict; a rejected proof falls back to solving).

    The checker replays the proof's bound-derivation steps over its own
    box, accepting a step only when the region it excludes is provably
    infeasible under the step's named constraint: for an upper-bound
    step [x <= b], the implying constraint's interval lower bound over
    the box restricted to [x >= b] must reach 1 (symmetrically for
    lower-bound steps, with an equality's upper bound falling to 1).
    This accepts any sound step — weaker-than-derivable bounds
    included — and rejects tampered ones.  Finally the culprit
    constraint's interval bound is re-evaluated over the replayed box;
    it must be finite, match the proof's claimed bound, and violate 1
    beyond {!Presolve.prune_margin}.  Non-finite or non-positive step
    bounds are rejected outright. *)
