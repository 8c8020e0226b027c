(** Compiled form of geometric programs for the default solver kernel
    (DESIGN §10).

    {!compile} lowers a problem into a {!plan}: the exponent rows of
    every function in one contiguous sparsity index, together with
    everything the solver needs that does not depend on coefficients
    (the nullspace bases of the equality rows, the factored least-norm
    Gram system).  {!pack} lays the coefficient vectors of problems that
    share the plan's {!structure_key} out in contiguous buffers,
    member-major.  [Solver.solve ~kernel:`Compiled] compiles each
    problem and packs it as a one-member block.

    {b Bit-identity contract.}  For finite arguments, {!value} and
    {!eval_into} execute the same floating-point operations in the same
    order as {!Smooth.log_sum_exp} on the equivalent dense term list
    [(a_k, log c_k)] (the list kernel's lowering), skipping only
    operations whose operand is an exact zero and whose result is
    provably bit-identical to not performing them (adding [+0.0]/[-0.0]
    to partial sums that start at [+0.0] and can never become [-0.0]).
    Values, gradients and Hessians — of the phase-I images [f(y) - s]
    too — are therefore bit-for-bit equal to the list kernel's;
    test/test_compiled.ml pins this with unit cases and QCheck
    properties.  The per-structure factorizations
    ({!Mat.nullspace_basis}, {!Mat.lu_factor}) are pure functions of the
    structure. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat

val structure_key : Problem.t -> string
(** Coefficient-blind coarsening of [Optimize.problem_key]: variable
    names, exponent bits and term/section framing, with coefficients
    dropped.  Problems with equal keys have the same sorted variable
    list and align term-for-term — posynomial terms are sorted by
    exponent vector with like terms merged, so term order never depends
    on coefficients. *)

(** One compiled convex function of the structure,

      F(y) = log sum_k exp(row_k . y + b_k)  +  lin . y + lin_const.

    Term [k]'s nonzero exponents are the [f_idx]/[f_coef] positions
    [f_starts.(k) .. f_starts.(k+1) - 1], ascending by variable index.
    The [b] vector is {e not} part of the function: coefficient terms
    live in a {!block}, selected by [(b, boff)] at each evaluation.
    [f_slot] names the coefficient table of the block this function
    reads (-1 for the coefficient-free phase-I helpers). *)
type fn = {
  f_nterms : int;
  f_starts : int array;
  f_idx : int array;
  f_coef : float array;
  f_support : int array;  (** sorted distinct variable indices touched *)
  f_lin_idx : int array;
  f_lin_coef : float array;
  f_lin_const : float;
  f_slot : int;
}

(** Outcome of factoring the least-norm Gram system [A A^T + 1e-12 I]
    once per structure. *)
type gram =
  | No_rows  (** no (nonzero) equality rows *)
  | Factored of Mat.lu
  | Gram_singular
      (** factorization failed; solves of this structure report
          [Infeasible], as the list kernel does when its Gram solve
          raises [Mat.Singular] *)

(** Everything coefficient-independent about one structure. *)
type plan = {
  pl_key : string;
  pl_vars : string list;  (** sorted, as [Problem.variables] *)
  pl_n : int;
  pl_index : (string, int) Hashtbl.t;
  pl_objective : fn;
  pl_ineqs : fn array;
  pl_nterms : int array;
      (** terms per coefficient slot: slot 0 = objective, slot j+1 =
          inequality j *)
  pl_row_zero : bool array;  (** per equality: exponent row all-zero? *)
  pl_rows : Vec.t array;  (** nonzero equality rows, source order *)
  pl_rows1 : Vec.t array;  (** the same rows over n+1 (slack column 0) *)
  pl_gram : gram;
  pl_zbasis : Vec.t array;  (** nullspace basis of [pl_rows] over n *)
  pl_zbasis1 : Vec.t array;  (** nullspace basis of [pl_rows1] over n+1 *)
  pl_objective1 : fn;  (** phase I objective: s *)
  pl_lower1 : fn;  (** phase I bound: -s - 20 <= 0 *)
  pl_ineqs1 : fn array;
      (** phase I images of [pl_ineqs] over n+1 with the -s slack;
          they read the {e same} coefficient slots as [pl_ineqs] *)
  pl_max_terms : int;  (** scratch sizing for evaluation buffers *)
}

(** One batch: a plan plus the coefficient vectors of its members, laid
    member-major in one flat buffer per function slot.  Member [m] of
    slot [s] occupies [bk_b.(s).(m * pl_nterms.(s) + k)] for term [k]
    (log coefficients), and its equality right-hand sides occupy
    [bk_d.(m * p + i)] (for the [p] nonzero rows, [-log c]) and
    [bk_dz] (for the all-zero rows, consistency-checked per solve). *)
type block = {
  bk_plan : plan;
  bk_members : Problem.t array;
  bk_nmembers : int;
  bk_b : float array array;
  bk_d : float array;
  bk_dz : float array;
  bk_nz : int;
}

val compile : Problem.t -> plan
(** Compile the structure of one representative problem.  Pure: any
    member of the group yields the same plan (coefficients never enter).
*)

val pack : plan -> Problem.t array -> block
(** Lay the members' coefficients into contiguous buffers.  Raises
    [Invalid_argument] if the array is empty or any member's
    {!structure_key} differs from the plan's. *)

(** {1 Flat evaluation primitives}

    Evaluation of a [fn] against an externally-supplied coefficient
    vector [(b, boff)], under the bit-identity contract above.  [es] is
    caller scratch of length at least [f_nterms]; [hess] is a flat
    row-major [n * n] buffer with stride [hn].  No bounds checks: the
    solver owns the invariants. *)

val value : fn -> b:float array -> boff:int -> es:float array -> float array -> float

val eval_into :
  fn ->
  b:float array ->
  boff:int ->
  es:float array ->
  grad:float array ->
  hess:float array ->
  hn:int ->
  float array ->
  float
(** [eval_into f ~b ~boff ~es ~grad ~hess ~hn y] returns [F y] and fills
    its gradient and Hessian into the given buffers.  Only the
    [f_support] entries of [grad] and the support-square block of [hess]
    are written (overwritten, not accumulated); everything else is left
    untouched, so one pair of buffers can be reused across functions
    whose supports differ. *)

(** {1 Test conveniences} *)

val member_value : block -> member:int -> slot:int -> Vec.t -> float
(** [member_value block ~member ~slot y] evaluates slot [slot] (0 =
    objective, j+1 = inequality j) of member [member] at [y],
    allocating its own scratch. *)

val member_eval_into :
  block ->
  member:int ->
  slot:int ->
  grad:Vec.t ->
  hess:Mat.t ->
  Vec.t ->
  float
(** {!eval_into} for one member/slot pair, writing into a caller matrix
    (cleared here, dense, for test comparison). *)
