(** Compiled form of a geometric program for the default solver kernel
    (DESIGN §10), and the log-space lowering both kernels share.

    {!lower} fixes the variable order and lowers the monomial equalities
    to rows [a . y = d]; {!Solver} runs it once per solve, for either
    kernel.  {!compile} then lowers the objective and inequalities into
    {!fn}s: the exponent rows of every function in a contiguous sparsity
    index with each function's log-coefficients alongside.  {!nullspace}
    builds the basis the Newton step reduces onto.
    [Solver.solve ~kernel:`Compiled] compiles every problem it solves.

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
    properties.  The nullspace basis ({!Mat.nullspace_basis}) is a pure
    function of the exponents.  The nullspace products {!reduce} and
    {!expand} are bit-identical to the dense loops over the full index
    range, for any input. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat

(** One compiled convex function of the problem,

      F(y) = log sum_k exp(row_k . y + b_k)  +  lin . y + lin_const.

    Term [k]'s nonzero exponents are the [f_idx]/[f_coef] positions
    [f_starts.(k) .. f_starts.(k+1) - 1], ascending by variable index,
    and its log-coefficient is [f_b.(k)]; the pure-affine phase-I
    helpers have no terms and an empty [f_b]. *)
type fn = {
  f_nterms : int;
  f_starts : int array;
  f_idx : int array;
  f_coef : float array;
  f_support : int array;  (** sorted distinct variable indices touched *)
  f_lin_idx : int array;
  f_lin_coef : float array;
  f_lin_const : float;
  f_b : float array;
  f_single : bool;
      (** one term, and every product of two of its exponents is finite:
          wherever the term's exponent is finite, {!value} and
          {!eval_into} take the affine shortcut *)
}

(** Column-compressed storage of [q] basis columns: column [j]'s stored
    entries are positions [c_starts.(j) .. c_starts.(j+1) - 1] of
    [c_idx] (row indices, ascending) and [c_val]. *)
type cols = { c_starts : int array; c_idx : int array; c_val : float array }

(** An orthonormal nullspace basis [Z] ([q] columns over [z_n] rows, as
    {!Mat.nullspace_basis} returns it) in two views: [z_sparse] stores
    each column's nonzero entries only, [z_full] every entry. *)
type basis = { z_n : int; z_q : int; z_sparse : cols; z_full : cols }

(** A problem's log-space lowering. *)
type lowered = {
  lo_vars : string list;  (** sorted, as [Problem.variables] *)
  lo_n : int;
  lo_index : (string, int) Hashtbl.t;  (** variable -> position in [y] *)
  lo_rows : Vec.t array;
      (** the structurally nonzero equality rows [a] (monomial
          [c * prod t^a = 1] becomes [a . y = -log c]), source order *)
  lo_d : float array;  (** their right-hand sides [-log c] *)
  lo_dz : float array;
      (** right-hand sides of the all-zero equality rows, each of which
          reads [0 = d] and is consistency-checked per solve *)
}

val lower : Problem.t -> lowered

(** One compiled problem: its objective and inequalities over [pl_n]
    variables. *)
type plan = { pl_n : int; pl_objective : fn; pl_ineqs : fn array }

val compile : lowered -> Problem.t -> plan

val affine : (int * float) list -> float -> fn
(** [affine [(i, c_i); ...] b] is the pure-affine function
    [sum_i c_i y_i + b] (no log-sum-exp terms), the image of
    {!Smooth.linear}. *)

val minus_slack : int -> fn -> fn
(** [minus_slack n f] is the phase-I image [f(y) - s] over [n + 1]
    variables, slack last, sharing [f]'s terms and coefficients. *)

val nullspace : int -> Vec.t array -> basis
(** [nullspace n rows] is {!Mat.nullspace_basis}[ n rows] in both
    views. *)

(** {1 Flat evaluation primitives}

    Evaluation of a [fn] under the bit-identity contract above.  [es] is
    caller scratch of length at least [f_nterms]; [hess] is a flat
    row-major [n * n] buffer with stride [hn].  No bounds checks: the
    solver owns the invariants. *)

val value : fn -> es:float array -> float array -> float

val eval_into :
  fn ->
  es:float array ->
  grad:float array ->
  hess:float array ->
  hn:int ->
  float array ->
  float
(** [eval_into f ~es ~grad ~hess ~hn y] returns [F y] and fills
    its gradient and Hessian into the given buffers.  Only the
    [f_support] entries of [grad] and the support-square block of [hess]
    are written (overwritten, not accumulated); everything else is left
    untouched, so one pair of buffers can be reused across functions
    whose supports differ. *)

(** {1 Nullspace products}

    The Newton step's reduction onto a {!basis} [Z], in flat buffers.
    Each product runs over [z_sparse] when its other factor is finite
    and over [z_full] otherwise, which makes it bit-identical to the
    dense loop over the full index range (ascending, from [+0.0]) in
    every case: a skipped addend [h *. 0.0] with finite [h] is a signed
    zero, which never changes such a sum. *)

val reduce :
  basis ->
  hess:float array ->
  grad:float array ->
  hz:float array ->
  hr:float array ->
  rhs:float array ->
  unit
(** [reduce z ~hess ~grad ~hz ~hr ~rhs] with [hess] the row-major
    [n * n] Hessian and [grad] the gradient over [n = z.z_n] writes
    [hz.(j * n + i) = (H z_j)_i], the lower triangle
    [hr.(j * q + l) = z_j . (H z_l)] ([l <= j], stride [q = z.z_q]) and
    [rhs.(j) = -(z_j . grad)].  The strict upper triangle of [hr] is
    left untouched.  Raises [Invalid_argument] if a buffer is too
    small. *)

val expand : basis -> u:float array -> dy:float array -> unit
(** [expand z ~u ~dy] overwrites [dy.(0 .. n-1)] with [Z u]: from
    [+0.0], column by column, skipping the columns whose [u.(j)] is an
    exact zero.  Raises [Invalid_argument] if a buffer is too small. *)
