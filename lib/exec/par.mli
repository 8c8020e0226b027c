(** Order-preserving, exception-safe parallel list map on the shared
    domain pool.

    Determinism contract: for any [jobs], [map] returns exactly the list
    the sequential [List.map] would — same elements, same order.
    [jobs <= 1] takes the exact sequential path (no pool involved);
    [jobs > 1] self-schedules the items over at most [jobs] lanes of the
    shared pool.  Results are collected into a pre-sized array by item
    index, so scheduling order never leaks into the output.

    Exception contract: every item's exception is caught on the worker;
    after the whole batch finishes, the exception of the {e smallest
    item index} is re-raised on the caller with its original backtrace
    (mirroring which failure sequential evaluation would have surfaced).
    Note the consequence: one crashing item discards the whole batch's
    results.  Callers that want per-item fault isolation instead wrap
    each item's body in [Robust.guard], which turns the crash into that
    item's own failure value (see DESIGN §11) — the optimizer's solve
    sweep and the pipeline's layer loop both do this.

    Nested calls (from inside a pool task) run sequentially — parallelism
    applies to the outermost loop only, which both bounds the domain
    count and makes the fallback trivially deterministic. *)

val map : ?pool:Pool.t -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], computed on up to [jobs] lanes
    (default [Domain.recommended_domain_count ()]).  The lanes run on
    the process-wide pool, created on first use, grown to at least
    [jobs - 1] workers (the calling domain is the remaining lane) and
    shut down [at_exit]; [?pool] overrides it. *)
