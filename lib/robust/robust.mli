(** Fault isolation for the optimizer sweep.

    The pipeline solves one geometric program per (permutation choice ×
    window placement) across every layer of a network; at that scale one
    pathological instance must not take down the run.  This module
    provides the pieces the drivers thread through the stack:

    - {!guard} runs a pair/layer body and catches any exception into a
      structured {!failure} record (provenance, exception, backtrace,
      elapsed time) instead of letting it propagate through
      {!Exec.Par}'s re-raise contract;
    - {!Inject} is a {e deterministic} fault-injection config — crash /
      stall decisions are pure functions of a seed and the site's
      provenance string, never of wall-clock time or scheduling — so the
      degradation paths are testable and independent of [--jobs].

    Deadlines themselves live in {!Gp.Solver.solve} ([?deadline_ns],
    status [Deadline_exceeded]); the retry/quarantine policy that
    consumes both lives in {!Optimize}. *)

type failure = {
  site : string;
      (** which guarded stage failed: ["solve"], ["integerize"], ["layer"],
          ["serve"] *)
  provenance : string;  (** the instance/layer identity, e.g. {!Formulate.instance.provenance} *)
  exn : string;  (** [Printexc.to_string] of the caught exception, or a synthetic tag *)
  backtrace : string;  (** raw backtrace text; may be empty when recording is off *)
  elapsed_ns : float;
      (** wall-clock time spent in the body before it failed.  Timing
          only — excluded from any determinism comparison. *)
  attempts : int;  (** how many attempts (1 + retries) were made in total *)
}

val describe : failure -> string
(** One-line rendering: site, provenance, exception, attempts. *)

val pp_summary : Format.formatter -> failure list -> unit
(** Table of failures (site, attempts, elapsed, exception, provenance) —
    the CLI's failure summary. *)

val now_ns : unit -> float
(** Wall-clock nanoseconds, for stamping {!failure.elapsed_ns}. *)

val hash64 : string -> int64
(** A stable 64-bit string hash: FNV-1a with murmur3's 64-bit
    finalizer.  It does not depend on the compiler's [Hashtbl.hash], so
    injection draws and the serve store's entry names
    ({!Serve.Store.digest}) are the same in every build, and a
    one-character change flips the whole word. *)

exception Injected_fault of string
(** Raised by {!guard} when the injection config fires a crash at the
    guarded site; carries the site and provenance. *)

module Inject : sig
  (** Seeded, deterministic fault injection.

      A config is a seed plus a list of rules.  Each rule gives a fault
      kind ([crash] raises {!Injected_fault} inside the guarded body,
      [stall] tells the caller to force an already-expired solver
      deadline), a site name, an optional provenance-substring filter,
      and a probability.  Whether a given (kind, site, provenance,
      attempt) fires is decided by hashing exactly those values with the
      seed (FNV-1a) into [0, 1) and comparing against the largest
      matching rule probability — never by wall clock or RNG state, so
      decisions are reproducible, independent of scheduling, and
      (because the attempt number enters the hash) a retry of a crashed
      site re-rolls rather than deterministically re-crashing. *)

  type t

  val none : t
  (** No rules; never fires. *)

  val is_none : t -> bool

  val seed : t -> int

  val parse : string -> (t, string) result
  (** Parse a spec string.  Grammar (comma-separated clauses):

      {v
      SPEC   ::= clause ("," clause)*
      clause ::= "seed=" INT
               | KIND "@" SITE [ "[" FILTER "]" ] "=" PROB
      KIND   ::= "crash" | "stall"
      v}

      [SITE] is a guarded site the rule can fire at: a crash at
      [solve], [integerize], [layer] or [serve], a stall at [solve] only
      (the one site that reads a stall).  Any other site is an [Error],
      so a typo cannot make an injected run pass without injecting
      anything.  [FILTER] restricts the rule to provenances containing
      it as a substring; [PROB] is a float in [0, 1].  Example:
      ["seed=7,crash@solve=0.2,stall@solve[resnet-2]=1"]. *)

  val to_string : t -> string
  (** Canonical spec text; [parse (to_string t)] round-trips. *)

  val decide :
    t -> kind:[ `Crash | `Stall ] -> site:string -> provenance:string -> attempt:int -> bool

  val crash : t -> site:string -> provenance:string -> attempt:int -> bool
  (** [decide ~kind:`Crash]. *)

  val stall : t -> site:string -> provenance:string -> attempt:int -> bool
  (** [decide ~kind:`Stall]. *)
end

val guard :
  ?inject:Inject.t ->
  ?attempt:int ->
  site:string ->
  provenance:string ->
  (unit -> 'a) ->
  ('a, failure) result
(** [guard ~site ~provenance body] runs [body ()] and catches any
    exception (including an {!Injected_fault} fired by [inject] for
    this site/provenance/attempt) into a {!failure} record carrying the
    provenance, the exception text, the backtrace and the elapsed time.
    [attempt] (default 0) is the retry ordinal; the recorded
    [failure.attempts] is [attempt + 1]. *)

val deadline_failure :
  ?attempts:int -> site:string -> provenance:string -> elapsed_ns:float -> unit -> failure
(** Synthetic failure for a solve that exhausted its deadline (and its
    retries): [exn] is ["Deadline_exceeded"]. *)

module Admission : sig
  (** Bounded-concurrency admission control: a counting semaphore that
      {e rejects} instead of queueing.  The serve daemon (DESIGN §14)
      admits each request through one of these — a request arriving
      while [limit] others are in flight is turned away immediately
      with a structured "rejected" response, keeping tail latency
      bounded under overload instead of letting a queue grow without
      bound.  Thread- and domain-safe. *)

  type t

  val create : int -> t
  (** [create limit] admits at most [limit] concurrent holders.
      [limit = 0] rejects everything; raises [Invalid_argument] on a
      negative limit. *)

  val limit : t -> int

  val with_admission : t -> rejected:(unit -> 'a) -> (unit -> 'a) -> 'a
  (** [with_admission t ~rejected body] runs [body ()] inside an
      admitted slot, releasing it even on exceptions; runs [rejected ()]
      instead when the limit is reached. *)
end
