(** Tiling levels of the canonical accelerator mapping.

    Levels are listed innermost first.  The canonical structure matches the
    paper's three-level memory hierarchy:

    - level 0 [`Register`]: temporal loops inside one register tile;
    - level 1 [`Pe_temporal`]: per-PE sequential loops over register tiles
      (register refills from SRAM hoist within this level);
    - level 2 [`Spatial`]: the PE array (loop order irrelevant; absent
      iterators multicast);
    - level 3 [`Dram_temporal`]: sequential loops over SRAM tiles (SRAM
      refills from DRAM hoist within this level). *)

type kind = Temporal | Spatial

val canonical : kind list
(** [[Temporal; Temporal; Spatial; Temporal]], innermost first. *)

val register_level : int
val pe_temporal_level : int
val spatial_level : int
val dram_temporal_level : int

val name : int -> string
(** Display name of a canonical level index. *)

val trip_var : level:int -> dim:string -> string
(** The trip-count variable name shared by the symbolic formulation, the
    solver and the model, e.g. [trip_var ~level:1 ~dim:"h" = "t1.h"]. *)

val parse_trip_var : string -> (int * string) option
(** Inverse of {!trip_var}. *)
