(** Dense matrices of floats with the factorizations needed by the
    geometric-programming solver: pivoted LU for general square systems and
    Cholesky for symmetric positive-definite ones.

    Matrices are stored row-major.  Dimensions are small (tens of rows), so
    no blocking or vectorization is attempted. *)

type t

exception Singular
(** Raised by [lu_factor] / [cholesky_in_place] when the matrix is
    (numerically) singular or not positive definite. *)

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val of_rows : float array array -> t
(** Builds a matrix from rows (copied).  Raises [Invalid_argument] if the
    rows are ragged. *)

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j v] adds [v] to entry [(i, j)] in place. *)

val data : t -> float array
(** The row-major storage of the matrix itself, not a copy: entry
    [(i, j)] is element [i * cols m + j], and writes to it are writes to
    the matrix.  For allocation-free fills of workspace matrices. *)

val copy : t -> t

val transpose : t -> t

val add : t -> t -> t

val mul : t -> t -> t
(** Matrix product.  Raises [Invalid_argument] on dimension mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t

val mul_trans_vec : t -> Vec.t -> Vec.t
(** [mul_trans_vec m x] is [transpose m * x] without materializing the
    transpose. *)

type lu
(** An LU factorization with its pivot sequence, produced by {!lu_factor}
    and reusable across any number of {!lu_solve_factored} right-hand
    sides. *)

val lu_factor : t -> lu
(** [lu_factor a] runs Gaussian elimination with partial pivoting on
    [a] once and keeps the factors.  [a] is left unmodified.  Raises
    [Invalid_argument] when [a] is not square, and [Singular] when no
    pivot exceeds the singularity threshold. *)

val lu_solve_factored : lu -> Vec.t -> Vec.t
(** [lu_solve_factored lu b] solves [a x = b] from the stored factors
    without refactoring.  Raises [Invalid_argument] on dimension
    mismatch. *)

val lu_solve : t -> Vec.t -> Vec.t
(** [lu_solve a b] is [lu_solve_factored (lu_factor a) b]: one solve of
    [a x = b], bit for bit what the factored path returns. *)

val nullspace_basis : int -> Vec.t array -> Vec.t array
(** [nullspace_basis n rows] is an orthonormal basis of the nullspace of
    the matrix whose rows are [rows] (each of dimension [n]), computed by
    two-pass modified Gram-Schmidt over the rows followed by coordinate
    completion.  Dependent rows are dropped by a norm threshold, so rank
    deficiency is handled.  A pure, deterministic function of its
    arguments — callers may compute it once per row structure and reuse
    the result. *)

val cholesky_in_place : t -> unit
(** [cholesky_in_place a] overwrites the lower triangle of [a] with its
    Cholesky factor [l], the lower-triangular matrix with
    [l * transpose l = a] for symmetric positive-definite [a], reading
    only the lower triangle; the strict upper triangle is left untouched,
    so a workspace buffer can be refilled and refactored without
    clearing.  Raises [Singular] when [a] is not
    positive definite (the buffer is then partially overwritten).
    Raises [Invalid_argument] when [a] is not square; element access is
    otherwise unchecked. *)

val cholesky_solve_in_place : t -> Vec.t -> unit
(** [cholesky_solve_in_place l b] overwrites [b] with the solution of
    [l * transpose l * x = b], given the factor [l] that
    {!cholesky_in_place} leaves in its lower triangle (only that triangle
    is read).  Raises [Invalid_argument] unless [l] is square of [b]'s
    dimension; element access is otherwise unchecked. *)
