(** On-disk content-addressed result store backing the serve daemon
    (DESIGN §14).

    An entry is keyed by the pair (solver-behavior fingerprint,
    request key) — {!Thistle.Optimize.config_fingerprint} and
    {!Thistle.Optimize.request_key} respectively — digested with
    {!Sweep.Journal.fingerprint} into a 16-hex name and fanned out as
    [root/<first-2-hex>/<digest>.json].  The entry records both key
    strings verbatim and {!get} verifies them against the caller's, so
    a 64-bit digest collision or a stale/corrupted file reads as a miss,
    never as a wrong answer.

    Writes go to a temp file in [root] and are [rename(2)]d into place,
    so readers — concurrent daemon threads or a restarted daemon — see
    either nothing or a complete entry.  Losing a race just rewrites the
    same bytes: payloads are pure functions of the key pair. *)

type t

val open_ : string -> (t, string) result
(** Create [root] (and one level of parents) if missing. *)

val root : t -> string

val digest : config:string -> request_key:string -> string
(** The 16-hex entry name; exposed for tests. *)

val entry_path : t -> config:string -> request_key:string -> string
(** Where the entry for this key pair lives; exposed for tests (e.g. to
    corrupt or truncate it). *)

val get : t -> config:string -> request_key:string -> string option
(** The stored payload, or [None] for missing, torn, corrupted or
    key-mismatched entries — every failure is a miss, never an
    exception. *)

val put : t -> config:string -> request_key:string -> string -> unit
(** Atomically persist a payload.  Raises [Sys_error]/[Unix_error] only
    for environmental failures (permissions, disk full, a store root
    that is no longer a directory), and then leaves no temp file
    behind. *)
