(** Append-only JSONL journal of completed sweep pairs.

    One line per completed (choice x placement) pair, recording the
    pair's global index, a 64-bit fingerprint of (problem structure,
    solver configuration), and the pair's full fate: the solver solution
    (status, objective and variable values as exact IEEE-754 bit
    patterns), the quarantining {!Robust.failure}, or the presolve
    infeasibility {!Analysis.Presolve.proof} that pruned the pair
    without a solve, plus the final attempt's solver telemetry, retry
    count and accumulated deadline hits.  Replaying an entry therefore
    reconstructs the in-memory slot of {!Thistle.Optimize.run}
    bit-for-bit — a resumed run, or one resumed from concatenated shard
    journals, reports exactly what the uninterrupted run would have.

    Crash-safety contract: entries are appended (and flushed) as each
    pair completes, so a killed run's journal holds every pair that
    finished.  Only the final line can be torn by a kill mid-write;
    {!load} silently drops undecodable lines for exactly that reason.
    Because workers append concurrently, the {e line order} of a
    parallel run is timing-dependent — the journal's contract is that
    its contents {e as a set of entries} are a function of the workload
    and configuration alone.  Entries are keyed by pair index; when a
    file holds several entries for one pair (e.g. appended across runs),
    the last one wins.

    Fingerprints version the cache: an entry is replayed only when its
    fingerprint matches the current run's
    [hash(problem_key | config fingerprint)], so a solver or
    formulation change invalidates stale pairs pair-by-pair and an
    incremental re-sweep re-solves only what changed. *)

type fate =
  | Solved of Gp.Solver.solution
  | Quarantined of Robust.failure
  | Pruned of Analysis.Presolve.proof
      (** statically infeasible: never solved; the proof is
          re-checkable via {!Analysis.Certificate.check_prune} *)

type entry = {
  pair : int;  (** global pair index in the deterministic enumeration *)
  fingerprint : string;  (** {!fingerprint} of the pair's problem + config *)
  provenance : string;  (** human-readable origin, for audits only *)
  fate : fate;
  stats : Gp.Solver.stats;
      (** final attempt's telemetry; all-zero for pruned pairs *)
  retries : int;  (** extra attempts spent before [fate] *)
  deadline_hits : int;  (** deadline hits across every attempt *)
}

val version : int
(** Journal schema version; entries from other versions never decode. *)

val fingerprint : config:string -> problem_key:string -> string
(** 16-hex-digit digest ({!Robust.hash64}) of the
    pair's canonical problem key and the solver-configuration
    fingerprint.  Collisions are possible in principle (64 bits) but
    would require two different programs in one sweep to collide; the
    journal is a cache, not a proof system. *)

val encode : entry -> string
(** One JSON object, no trailing newline.  Floats are serialized as
    IEEE-754 bit patterns in hex, so decoding is exact. *)

val decode : string -> (entry, string) result

val append_line : out_channel -> entry -> unit
(** Write [encode entry] plus a newline and flush.  Callers serialize
    concurrent appends themselves (one mutex per journal file). *)

val load : string -> (entry list, string) result
(** All decodable entries of a journal file, in file order.  Undecodable
    or wrong-version lines are dropped silently (a killed run may tear
    its final line).  [Error] only when the file cannot be opened or read
    (a directory, say); its message names [path] once. *)

val load_existing : string -> (entry list, string) result
(** Like {!load} but a missing file is an empty journal. *)

val compact : entry list -> entry list
(** Collapse an incrementally-grown journal to its effective contents:
    one entry per pair index (the last occurrence wins, matching the
    resume loader's replacement order), sorted by ascending pair index.
    Idempotent; loading the compacted list replays exactly like loading
    the original. *)

val write_file : string -> entry list -> (unit, string) result
(** Replace [path] with exactly [entries], one line each (used by
    [thistle journal compact]).  The lines go to a temp file in [path]'s
    directory, renamed over [path] once complete, so a failure or a kill
    part-way leaves [path] as it was.  [Error] when the temp file cannot
    be written or renamed over [path] (a directory, say); its message
    names [path] once, and the temp file is removed. *)
