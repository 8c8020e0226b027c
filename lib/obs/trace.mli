(** Nestable timed spans with an in-memory collector and JSONL export.

    Tracing is {e disabled by default}: {!span} then reduces to a single
    atomic-load branch before calling its body, so instrumented code paths
    pay no measurable cost in normal runs, and nothing a span records can
    perturb computation — results are bit-identical with tracing on or
    off.  {!start} resets the collector and enables recording; {!stop}
    disables it and keeps the collected events for export.

    Span nesting is tracked per domain (a domain-local stack of open
    spans).  A task submitted to a worker domain therefore starts a new
    root span on that domain rather than pointing at the submitting
    domain's open span — parenthood never crosses domains, which keeps the
    collector lock-free on the hot path and the trace unambiguous.

    The collector is safe to use from any number of domains concurrently:
    span bodies run outside the collector lock, which is held only to
    append one finished event.

    {2 JSONL schema}

    One JSON object per line, one line per {e finished} span, in
    completion order:

    {v
    {"type":"span","name":<string>,"id":<int>,"parent":<int|null>,
     "domain":<int>,"ts_ns":<int>,"dur_ns":<int>,"attrs":{<string>:<string>,...}}
    v}

    [ts_ns] is the span's start time in nanoseconds relative to the
    {!start} call of the current recording session; [dur_ns] its
    duration; [parent] the [id] of the enclosing span on the same domain,
    or [null] for roots.  Ids are unique within a session but not
    consecutive per domain. *)

type event = {
  id : int;
  parent : int option;
  name : string;
  domain : int;  (** integer id of the domain the span ran on *)
  ts_ns : int64;  (** start, ns since {!start} *)
  dur_ns : int64;
  attrs : (string * string) list;
}

val enabled : unit -> bool

val start : unit -> unit
(** Drop previously collected events and begin recording. *)

val stop : unit -> unit
(** Stop recording; collected events remain available. *)

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; when tracing is enabled, the call is
    recorded as a span named [name].  The span is recorded (and the
    domain-local stack unwound) even when [f] raises; the exception is
    re-raised. *)

val events : unit -> event list
(** Finished spans of the current session, in completion order. *)

val to_jsonl : event -> string
(** One JSONL line (no trailing newline). *)

val export : out_channel -> unit
(** Write every collected event as JSONL. *)
