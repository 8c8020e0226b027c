(** Dense vectors of floats.

    Thin wrappers over [float array] used by the geometric-programming
    solver.  All operations allocate fresh vectors unless the name ends in
    [_inplace]. *)

type t = float array

val create : int -> t
(** [create n] is the zero vector of dimension [n]. *)

val init : int -> (int -> float) -> t

val dim : t -> int

val copy : t -> t

val of_list : float list -> t

val to_list : t -> float list

val add : t -> t -> t
(** [add x y] is the elementwise sum.  Raises [Invalid_argument] on
    dimension mismatch. *)

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> t
(** [axpy a x y] is [a *. x + y]. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val max_elt : t -> float
(** Maximum element.  Raises [Invalid_argument] on the empty vector. *)

val concat : t -> t -> t

val slice : t -> int -> int -> t
(** [slice x pos len] extracts the sub-vector of [len] entries starting at
    [pos]. *)
