(** The YAML subset Timeloop-style specification documents (Fig. 3) are
    written in: indentation-structured block maps and block lists of
    ["- "] items (a map item's first key inline after the dash, as in
    ["- name: x"]), with null/bool/int/float/string scalars.  Emission
    only: Thistle writes these documents for the external Timeloop model
    and never reads them back. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Map of (string * value) list

val emit : value -> string
(** The block-style text of [v], two spaces per level, one key or list
    item per line; an empty map or list is written [{}] or [[]].  Null
    is [null], floats use [%g].  A string is double-quoted when it
    would otherwise read as a null, bool or number (["42"], ["true"],
    ["~"]) or as a quoted scalar, holds [':'] or ['#'], is empty, starts
    with ['-'] or a space, or ends with a space; other strings are
    written plain.  Nothing is escaped inside the quotes. *)
