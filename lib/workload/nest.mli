(** Perfectly nested loop computations over dense tensors, the problem
    abstraction shared by every component of the system.

    A nest is a set of named iteration-space dimensions with integer
    extents, plus the tensors the computation touches.  Each tensor data
    dimension is indexed by an affine {e projection} of iterators,
    [sum_k stride_k * iter_k] (e.g. [x*h + r] for a convolution input).
    This covers matrix multiplication, Conv2D, and the other
    tensor-contraction-like kernels the paper considers. *)

type dim = { dim_name : string; extent : int }

type index = { stride : int; iter : string }

type projection = index list
(** One data dimension of a tensor; the list must be non-empty. *)

type tensor = {
  tensor_name : string;
  projections : projection list;
  read_write : bool;
      (** [true] for in/out operands (e.g. the accumulated output), whose
          data movement is counted in both directions *)
}

type t

val make : name:string -> dims:dim list -> tensors:tensor list -> t
(** Validates the nest: positive extents, positive strides, unique
    dimension and tensor names, every referenced iterator declared.
    Raises [Invalid_argument] otherwise. *)

val name : t -> string

val dims : t -> dim list

val dim_names : t -> string list
(** In declaration order. *)

val extent : t -> string -> int
(** Raises [Not_found] for an undeclared dimension. *)

val tensors : t -> tensor list

val tensor : t -> string -> tensor

val iters_of_tensor : tensor -> string list
(** Iterators appearing in the tensor's projections, sorted, deduplicated. *)

val tensor_mentions : tensor -> string -> bool

val ops : t -> float
(** Total number of innermost operations (MACs): the product of all
    extents. *)

val tensor_words : t -> tensor -> float
(** Total size of the tensor in words, from the full-extent footprint of
    each projection. *)

val pp : Format.formatter -> t -> unit
