(** The lint gate: how diagnostics from the analysis passes act on a run.

    [Enforce] (the default) fails fast: any error diagnostic raises
    {!Rejected} before the malformed program reaches the solver — with
    thousands of programs per sweep, one ill-formed formulation would
    otherwise poison a whole ranking without a trace.  [Warn] demotes
    errors to logged warnings; [Off] disables the gate.  The sweep's
    [lint] config field selects the mode; no CLI flag sets it. *)

type mode = Enforce | Warn | Off

exception Rejected of Diagnostic.t list
(** Raised by {!gate} in [Enforce] mode; carries the error diagnostics. *)

val mode_name : mode -> string

val gate : mode -> Diagnostic.t list -> unit
(** Apply the mode: [Enforce] raises {!Rejected} when errors are present
    and logs the warnings; [Warn] logs everything; [Off] ignores. *)
