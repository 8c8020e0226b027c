(** Minimal blocking client for the serve daemon: one connection, one
    request/response at a time.  Used by [thistle client], the tests and
    the bench harness. *)

type t

val unix_addr : string -> Unix.sockaddr
val tcp_addr : int -> Unix.sockaddr
(** Loopback. *)

val connect : ?max_frame:int -> Unix.sockaddr -> (t, string) result
(** [Error] names the address — the socket path, or [127.0.0.1:PORT] —
    and the reason, e.g. no such socket or a refused connection. *)

val request : t -> Protocol.request -> (Protocol.response, string) result
(** One round trip.  Errors cover transport failures (connection reset,
    torn or oversized response frame) and undecodable responses. *)

val request_raw : t -> string -> (Protocol.response, string) result
(** Send a raw payload verbatim — the tests' hook for malformed
    requests. *)

val close : t -> unit
