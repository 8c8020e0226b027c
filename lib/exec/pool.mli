(** A fixed pool of OCaml 5 domains fed by a mutex/condition work queue.

    The pool is the single parallel substrate of the repository: every
    parallel loop (the optimizer's GP sweep, the per-layer pipeline, the
    mapper's seeded streams) runs as a batch of tasks on one shared pool,
    so the total number of live domains stays bounded regardless of how
    the loops nest.

    Tasks run {e at most one level deep}: a task executed by the pool
    (whether on a worker domain or on the submitting domain while it helps
    drain the queue) observes {!inside_worker}[ = true], and the [Par]
    layer uses that to fall back to sequential execution instead of
    re-entering the pool.  This keeps nested parallel loops deadlock-free
    and the domain count fixed. *)

type t

val create : workers:int -> t
(** [create ~workers] spawns [workers] worker domains ([0] is legal: every
    batch then runs entirely on the submitting domain).  Raises
    [Invalid_argument] on a negative count.  The worker count is clamped
    to a fixed bound kept well under the OCaml runtime's hard domain
    limit. *)

val size : t -> int
(** Current number of worker domains. *)

val ensure_workers : t -> int -> unit
(** [ensure_workers t n] grows the pool to at least [n] workers (with
    the same clamp as {!create}); it never shrinks.  No-op on a
    shut-down pool. *)

val run : t -> (unit -> unit) list -> unit
(** [run t tasks] enqueues the batch and blocks until every task has
    finished.  The calling domain participates: it executes queued tasks
    itself while waiting, so progress is guaranteed even with zero
    workers or a fully busy pool.  Tasks must not raise — wrap the body
    and store the exception (as {!Par.map} does); a task that does raise
    is swallowed so the batch still completes. *)

val shutdown : t -> unit
(** Drains the queue, stops and joins all workers.  Subsequent [run]
    calls execute entirely on the calling domain. *)

val inside_worker : unit -> bool
(** [true] while the current domain is executing a pool task — used by
    [Par] to run nested parallel loops sequentially. *)
