(** Interior-point solver for geometric programs.

    The problem is transformed to log space ([y = log t]), where the
    objective and inequality constraints become convex log-sum-exp
    functions and monomial equalities become affine equalities.  A
    standard two-phase barrier method then follows: phase I finds a
    strictly feasible point (or a certificate of infeasibility), phase II
    traces the central path with equality-constrained Newton steps.
    Each centering takes Newton steps under a halving Armijo line search
    and ends at the first of: a Newton decrement [λ²/2 < 1e-10]; a step
    that no halving makes acceptable; a candidate that rounds back to
    the iterate in every bit (every smaller step would too, so the
    iterate is kept without evaluating it); or 80 steps.

    The barrier method is written once: the lowering of the equality
    rows and their least-norm start (a warm start projected onto them),
    phase I, the centering loop with its line search, and the schedule
    of barrier parameters.  A kernel is only how one phase's functions
    are evaluated and how its Newton system is solved:
    - [`Compiled] (the default, the production path): {!Batch.compile}
      lowers the objective and inequalities once into contiguous sparse
      exponent rows with their log-coefficients, evaluated into flat
      buffers over each function's support.  Each KKT system is solved
      in the nullspace basis of the equality rows — one in-place
      Cholesky factorization of the reduced Hessian instead of a dense
      [(n+p)^2] LU factorization, with the equality residual [A dy = 0]
      exact by construction — falling back to the dense LU when
      Cholesky fails at every regularization level.
    - [`List]: closures per function ({!Smooth}) with dense Hessians and
      a dense [(n+p)^2] LU factorization per Newton step, kept as the
      reference solver that the tests and the solver benchmark compare
      against.

    So both kernels run the identical iteration schedule, and their
    function evaluations are bit-for-bit equal ({!Batch.eval_into}
    against {!Smooth.log_sum_exp}); Newton directions may differ in
    low-order bits because the factorization differs, so results agree
    to solver tolerance. *)

type status =
  | Optimal  (** converged to the requested duality-gap tolerance *)
  | Infeasible  (** phase I could not find a strictly feasible point *)
  | Iteration_limit
      (** progress stalled; the returned point is the best found and is
          feasible, but optimality is not certified *)
  | Deadline_exceeded
      (** the cooperative [?deadline_ns] budget ran out before the solve
          converged; [values] is empty and [objective] is [nan].  Counted
          in {!stats.deadline_hits} / {!totals.t_deadline_hits}. *)

type solution = {
  status : status;
  values : (string * float) list;
      (** variable assignment in the original (positive) space *)
  objective : float;  (** objective posynomial value at [values] *)
}

type kernel = [ `Compiled | `List ]

val lookup : solution -> string -> float
(** Value of a variable in the solution.  Raises [Invalid_argument] with
    a message naming the missing variable (and the variables the solution
    does carry) if it does not occur — never a bare [Not_found]. *)

val env : solution -> string -> float
(** The solution as an evaluation environment.  Missing variables raise
    like {!lookup}. *)

(** {2 Telemetry}

    An optional mutable sink filled in by {!solve}.  The counters are
    pure functions of the problem (no timing enters them), so for a
    fixed problem they are identical run to run and independent of any
    parallelism around the solver. *)

type stats = {
  mutable phase1_outer : int;
      (** outer barrier iterations spent finding a strictly feasible
          point (0 when the equality-seeded start is already strictly
          feasible) *)
  mutable phase2_outer : int;  (** outer barrier iterations of the minimization *)
  mutable newton_iters : int;  (** Newton steps across both phases *)
  mutable backtracks : int;
      (** step-size backoffs: line-search halvings across all Newton
          steps *)
  mutable kkt_regularizations : int;
      (** extra regularization retries after a singular KKT system *)
  mutable cholesky_fallbacks : int;
      (** Newton steps where the structured Cholesky path failed at
          every regularization level and the dense LU path was tried
          instead; always 0 for the [`List] kernel *)
  mutable deadline_hits : int;
      (** 1 when this solve returned {!Deadline_exceeded}, else 0 *)
  mutable duality_gap : float;
      (** certified duality-gap bound [m / t] at the end of phase II;
          [0.0] for problems without inequalities, [nan] when phase II
          never ran (infeasible or inconsistent problems) *)
}

val fresh_stats : unit -> stats
(** All counters zero, [duality_gap = nan]. *)

val copy_stats : into:stats -> stats -> unit
(** [copy_stats ~into st] overwrites every field of [into] with the
    fields of [st].  Only perfbench's stage replay calls it, to copy a
    deduplicated solve's telemetry; the library sweep solves every pair
    once. *)

type totals = {
  solves : int;
  t_phase1_outer : int;
  t_phase2_outer : int;
  t_newton_iters : int;
  t_backtracks : int;
  t_kkt_regularizations : int;
  t_cholesky_fallbacks : int;
  t_deadline_hits : int;
  max_duality_gap : float;  (** largest finite per-solve gap; [0.0] if none *)
}
(** Order-independent aggregation of per-solve {!stats} — summing is
    commutative, so accumulating in any schedule order yields the same
    totals. *)

val zero_totals : totals

val accumulate : totals -> stats -> totals

val pp_totals : Format.formatter -> totals -> unit

val solve :
  ?tol:float ->
  ?stats:stats ->
  ?warm_start:(string * float) list ->
  ?kernel:kernel ->
  ?deadline_ns:float ->
  ?initial_reg:float ->
  Problem.t ->
  solution
(** [solve problem] minimizes the problem objective.  [tol] bounds the
    final duality gap per inequality constraint (default 1e-8); each
    barrier phase runs at most 60 centerings.
    When [stats] is given, its fields are overwritten with this solve's
    telemetry; passing it does not change the returned solution in any
    way.

    [deadline_ns] is a cooperative wall-clock budget for the whole
    solve, checked at outer-iteration boundaries (a single centering
    always runs to completion).  When it runs out the solve returns
    {!Deadline_exceeded} instead of raising.  A non-positive budget
    trips deterministically at the very first check, before any solver
    work — the fault-injection "stall" path relies on this.  With the
    default ([None]) no clock is ever read.

    [initial_reg] (default [1e-9]) is the starting KKT regularization of
    every Newton step's factorization ladder; the retry policy in
    {!Optimize} escalates it when re-running a solve that crashed or
    timed out.

    [warm_start] supplies a prior solution's positive-space values
    (e.g. [solution.values] from a structurally close problem); they
    seed the log-space start after projection onto this problem's
    equality manifold.  Non-positive or non-finite values are ignored.
    Warm starting changes only the iteration path, never feasibility or
    the optimum the solver converges to.

    [kernel] selects the evaluation/KKT strategy (default [`Compiled]);
    see the module preamble. *)
