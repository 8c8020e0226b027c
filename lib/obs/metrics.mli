(** Process-wide metric registry: counters, gauges and log-scale
    histograms.

    Like {!Trace}, metrics are {e disabled by default}: every update
    ({!add}, {!incr}, {!observe_max}, {!observe}) is a no-op
    behind a single atomic-load branch until {!enable} is called, so
    instrumented code pays nothing in normal runs and recording cannot
    perturb results.  Handle creation ({!counter} / {!gauge} /
    {!histogram}) registers the metric whether or not recording is
    enabled, and is idempotent per name.

    All updates are atomic and may come from any domain.

    {2 Determinism contract}

    The registry distinguishes quantities by how they aggregate:

    - {e counters} accumulate sums of work items (solver iterations,
      candidates, tasks).  Instrumented code must only feed counters with
      quantities that are functions of the input, never of scheduling —
      so for a fixed workload, counter values are identical for any
      [--jobs] setting and with tracing on or off ({!counters} is the
      deterministic subset used by the regression tests);
    - {e gauges} keep a single float.  {!observe_max} merges by maximum,
      which is order-independent and therefore also deterministic for
      deterministic inputs;
    - {e histograms} record {e timing} distributions (queue waits).
      Their contents depend on scheduling and load by nature and are
      excluded from any determinism comparison. *)

type counter
type gauge
type histogram

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every registered metric (registrations are kept). *)

val counter : string -> counter
(** Registers the counter on first use.  Raises [Invalid_argument] if the
    name is already registered as a different metric kind. *)

val add : counter -> int -> unit
val incr : counter -> unit

val gauge : string -> gauge
val observe_max : gauge -> float -> unit
(** Set the gauge to the maximum of its current value and the argument
    (atomically).  An unset gauge is [neg_infinity] for this merge and
    reads as [0.0] in snapshots until first observed. *)

val now_ns : unit -> float
(** Wall-clock nanoseconds, for stamping enqueue times fed into timing
    histograms.  Callers should skip the clock read entirely when
    {!enabled} is false. *)

val histogram : string -> histogram
val observe : histogram -> float -> unit
(** Record a non-negative sample into log-2 buckets (bucket [i] counts
    samples in [(2^(i-1), 2^i]]; samples [<= 1] land in bucket 0). *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : float; buckets : (float * int) list }
      (** [buckets] lists only non-empty buckets as (inclusive upper
          bound, count), ascending. *)

val snapshot : unit -> (string * value) list
(** Every registered metric with its current value, sorted by name. *)

val counters : (string * value) list -> (string * int) list
(** The counter subset of a snapshot — the deterministic slice compared
    by the regression tests. *)

val to_json : (string * value) list -> string
(** One JSON object:
    [{"counters":{...},"gauges":{...},"histograms":{name:{"count":..,
    "sum":..,"buckets":{"<bound>":count,...}},...}}]. *)
