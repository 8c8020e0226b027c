(** Conversion of the solver's real-valued design point into integer
    candidates, and their ranking with the accelerator model (Section IV).

    Following the paper: memory capacities snap to the [n] closest powers
    of two; tile sizes are chosen top-down — the [n] divisors of the
    problem extent closest to the real SRAM-level tile, then divisors of
    each such candidate for the PE-level tile, then divisors of those for
    the register tile.  The cross product is filtered (divisibility is
    ensured by construction; area and capacity violations are rejected)
    and every surviving candidate is scored with {!Accmodel.Evaluate};
    the best one is returned. *)

type outcome = {
  arch : Archspec.Arch.t;
  mapping : Mapspace.Mapping.t;
  metrics : Accmodel.Evaluate.t;
  choice : Permutations.choice;
  continuous_objective : float;
      (** GP objective value at the real-valued optimum *)
  candidates_tried : int;
  candidates_valid : int;
}

val score : Formulate.objective -> Accmodel.Evaluate.t -> float
(** The model metric being minimized: total energy (pJ) for [Energy],
    total cycles for [Delay], their product for [Edp]. *)

val compare_scores : float -> float -> int
(** Ascending order on finite scores with every non-finite score (NaN,
    [+/-infinity]) ranked after every finite one; non-finite scores tie
    with each other.  This is the comparator behind every ranking of the
    flow — the candidate fold of {!run}, and [Optimize]'s continuous
    shortlist and final selection — since [Float.compare] alone orders
    NaN {e first}, which under a minimization objective would crown a
    bogus candidate. *)

val improves : float -> float option -> bool
(** [improves s best] is whether a candidate scoring [s] displaces the
    incumbent score [best] in {!run}'s fold: strictly better under
    {!compare_scores}, so the first of exact ties stays, a non-finite
    incumbent yields to any finite challenger, and [None] (no incumbent
    yet) always yields. *)

val per_dim_budget : max_candidates:int -> dims:int -> int
(** Largest integer [b >= 1] with [b^dims <= max_candidates], computed by
    integer search — the float [pow]-root round-trip undercounts on exact
    roots (e.g. [4096 ** (1/3)] evaluating to 15.999...).  [dims <= 1]
    returns [max_candidates] itself.  Exposed for tests. *)

val run :
  ?n_divisors:int ->
  ?n_pow2:int ->
  ?max_candidates:int ->
  ?min_pe_utilization:float ->
  ?contention:bool ->
  Archspec.Technology.t ->
  Formulate.instance ->
  Gp.Solver.solution ->
  (outcome, string) result
(** [n_divisors] (default 2) is the paper's [n]; [n_pow2] (default 2) is
    the paper's [N]; [max_candidates] (default 65536) bounds the cross
    product; [min_pe_utilization] (default 0, i.e. off) rejects candidates
    whose used-PE fraction falls below the threshold — the paper's
    "minimum threshold on resource utilization" filter.

    Candidates are scored by {!Accmodel.Evaluate} under the instance's
    communication model ({!Formulate.instance.comm}); [contention]
    (default false) additionally serializes the DRAM/NoC channels in
    that scoring (only meaningful under [Comm_aware]). *)
