(** The evaluation workloads of the paper: all convolutional layers of
    ResNet-18 and Yolo-9000 (Table II).  Batch size 1; kernel stride 2 for
    the layers marked with [*] in the table, 1 otherwise. *)

val resnet18 : Conv.t list
(** 12 conv layers, named ["resnet-1"] .. ["resnet-12"]. *)

val yolo9000 : Conv.t list
(** 11 conv layers, named ["yolo-1"] .. ["yolo-11"]. *)

val alexnet : Conv.t list
(** The 5 conv layers of AlexNet (not part of the paper's evaluation;
    provided for experiments beyond Table II).  Named ["alexnet-1"] ..
    ["alexnet-5"]. *)

val vgg16 : Conv.t list
(** The 13 conv layers of VGG-16, named ["vgg-1"] .. ["vgg-13"]. *)

val pipelines : (string * Conv.t list) list
(** All pipelines by name: the paper's two first ([resnet18], [yolo9000]),
    then [alexnet] and [vgg16]. *)

val all_layers : Conv.t list
(** The 41 layers of all four pipelines: Yolo-9000 first as in the
    figures, then ResNet-18, AlexNet and VGG-16. *)

val find : string -> Conv.t
(** Look up a layer by name.  Raises [Not_found]. *)
