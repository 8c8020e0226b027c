(** Conv2D layer specifications (paper Listing 1) and their loop nests.

    Extents follow the paper's conventions: [h]/[w] iterate the {e output}
    feature map, the input is indexed by [stride_h*h + r] / [stride_w*w + s],
    and batch size is part of the specification.  Layers are assumed
    same-padded, so the output spatial extent is [input / stride] (see
    DESIGN.md, "Padding"). *)

type t = {
  layer_name : string;
  batch : int;  (** N *)
  out_channels : int;  (** K *)
  in_channels : int;  (** C *)
  in_height : int;  (** input image H (as listed in Table II) *)
  in_width : int;
  kernel : int;  (** R = S *)
  stride : int;  (** kernel stride (1 or 2 in Table II) *)
}

val make :
  name:string ->
  ?batch:int ->
  k:int ->
  c:int ->
  hw:int ->
  rs:int ->
  ?stride:int ->
  unit ->
  t
(** Square-image, square-kernel convenience constructor matching Table II
    columns.  [batch] defaults to 1 and [stride] to 1. *)

val out_height : t -> int
(** Output feature-map height: [in_height / stride], rounded up. *)

val to_nest : t -> Nest.t
(** The 7-dimensional nest over [n k c r s h w] with tensors [Out] (rw),
    [In], and [Ker].  Dimensions with extent 1 are kept so every layer
    exposes the same iterator set. *)

val macs : t -> float

val pp : Format.formatter -> t -> unit
