(** Structured diagnostics emitted by the static-analysis passes.

    Every checker — the DGP discipline pass ({!Discipline}), the
    dimensional-analysis pass ({!Dimexpr}) and the post-solve certificate
    ({!Certificate}) — reports findings through this one type, so callers
    (the {!Lint} gate, the [thistle audit] subcommand, tests) can filter
    by severity, key on constraint names and print uniform tables.

    [provenance] identifies which formulated program the finding belongs
    to (layer, objective, permutation choice, window placement) — with
    thousands of programs per sweep, a diagnostic without provenance is
    unactionable. *)

type severity = Error | Warning

type t = {
  severity : severity;
  pass : string;  (** ["discipline"], ["units"] or ["certificate"] *)
  constraint_name : string option;
      (** [None] when the finding concerns the objective or the problem
          as a whole *)
  message : string;
  provenance : string option;
      (** layer / objective / permutation / placement of the program *)
}

val error :
  pass:string -> ?constraint_name:string -> ?provenance:string -> string -> t

val warning :
  pass:string -> ?constraint_name:string -> ?provenance:string -> string -> t

val is_error : t -> bool

val errors : t list -> t list

val count : t list -> int * int
(** [(errors, warnings)]. *)

val summary : t list -> string
(** One line: count by severity plus the first error's message — for
    embedding in [Error _] results. *)

val pp : Format.formatter -> t -> unit
(** One diagnostic on one line: [severity pass [constraint] message
    (provenance)]. *)

val pp_table : Format.formatter -> t list -> unit
(** All diagnostics as an aligned table, errors first. *)

val to_string : t -> string
