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
    is [null], floats use [%g].  A string is double-quoted when a YAML
    1.1 reader would otherwise type it as a null, bool, number,
    timestamp, merge or value key (["42"], ["true"], ["yes"], ["off"],
    ["~"], [".inf"], ["2001-12-14"], ["<<"], ["="]) or it would
    read as a quoted scalar, holds [':'], ['#'] or a control character,
    is empty, starts with a flow or indicator character (["-"], ["["],
    ["&"], ["*"], ["!"], ...) or a space, or ends with a space; other
    strings are written plain.  Inside the quotes ['\\'] and ['"'] are
    escaped, and control characters are written as escapes ([\n],
    [\t], [\xHH]). *)
