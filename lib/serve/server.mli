(** The co-design daemon (DESIGN §14): a long-lived server answering
    length-prefixed JSON requests ({!Wire}, {!Protocol}) over a Unix or
    TCP socket.

    One accept thread hands each connection to its own handler thread;
    handlers run optimizations directly, so the solve parallelism is the
    shared {!Exec.Pool} exactly as in the CLI.  Admission control
    ({!Robust.Admission}) bounds concurrently-served requests — an
    over-limit request gets a structured [Rejected] response instead of
    queueing.  Requests are resolved and rendered by {!Protocol.resolve}
    and {!Protocol.render}, exactly as the CLI runs them, and persisted
    in the {!Store}, so a warm answer is byte-identical to a cold one
    and to the corresponding CLI run.

    Counters (registered under the DESIGN §9 contract; recording is
    enabled on {!start}):
    - [serve.requests] — well-formed decoded requests (malformed frames
      and payloads are answered but not counted);
    - [serve.cache_hits] — requests answered from the store;
    - [serve.cache_misses] — requests that went to the solver (every
      solve-type request when the daemon runs without a store);
    - [serve.rejected] — requests turned away by admission control.

    For a serial client the counters are pure functions of the request
    sequence and the store state; identical concurrent requests are
    single-flighted (the followers re-read the store after the leader
    lands), so a request set still produces one miss per distinct key.
    [serve.rejected] is the documented exception: it counts overload,
    which only concurrent arrival can produce. *)

type where =
  | Unix_sock of string  (** path; a stale socket file is replaced *)
  | Tcp of int  (** port on 127.0.0.1; 0 picks an ephemeral port *)

type config = {
  where : where;
  store_dir : string option;  (** [None] disables the result store *)
  base : Thistle.Optimize.config;
      (** solver-side settings; per-request knobs ({!Protocol.opts})
          overlay it, everything else is versioned by
          {!Thistle.Optimize.config_fingerprint} *)
  max_inflight : int;  (** admission limit for solve-type requests *)
  max_frame : int;  (** per-connection request frame cap *)
}

val default : where -> config

type t

val start : config -> (t, string) result
val address : t -> Unix.sockaddr
(** The bound address — resolves [Tcp 0] to the actual port. *)

val wait : t -> unit
(** Block until {!stop} (from another thread or a signal handler). *)

val stop : t -> unit
(** Idempotent: stop accepting, shut down live connections, join every
    thread, unlink a Unix socket path. *)
