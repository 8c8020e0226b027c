(** Fault isolation for the optimizer sweep (DESIGN §11).

    The pipeline solves one geometric program per (permutation choice ×
    window placement) across every layer of a network; at that scale one
    pathological instance must not take down the run.  This module
    provides the pieces the drivers thread through the stack:

    - {!guard} runs a pair/layer body and catches any exception into a
      {!failure} record (site, provenance, exception) instead of letting
      it propagate through {!Exec.Par}'s re-raise contract;
    - {!Inject} is a {e deterministic} crash-injection config that tests
      build — whether a site crashes is a pure function of a seed and
      the site's provenance string, never of wall-clock time or
      scheduling — so the quarantine paths are testable and independent
      of [--jobs].

    A failure is final: nothing is retried, because every solve is
    already bounded and a guarded body that raised once is deterministic
    in its inputs.  A failure record is a pure function of the guarded
    work item, so a report that prints its quarantine (and the serve
    store's copy of it) is the same on every run.  The quarantine
    policy that consumes failures lives in {!Optimize}. *)

type failure = {
  site : string;
      (** which guarded stage failed: ["solve"], ["integerize"], ["layer"],
          ["serve"] *)
  provenance : string;  (** the instance/layer identity, e.g. {!Formulate.instance.provenance} *)
  exn : string;  (** [Printexc.to_string] of the caught exception *)
}

val describe : failure -> string
(** One-line rendering: site, exception, provenance. *)

val pp_summary : Format.formatter -> failure list -> unit
(** Table of failures (site, exception, provenance) — the report's
    quarantine summary. *)

val hash64 : string -> int64
(** A stable 64-bit string hash: FNV-1a with murmur3's 64-bit
    finalizer.  It does not depend on the compiler's [Hashtbl.hash], so
    injection draws and the serve store's entry names
    ({!Serve.Store.digest}) are the same in every build, and a
    one-character change flips the whole word.  [test_robust] holds
    its value to a [String.iter] reference fold, kept in the test,
    over arbitrary strings, and [test_serve] pins store digests. *)

exception Injected_fault of string
(** Raised by {!guard} when the injection config fires a crash at the
    guarded site; carries the site and provenance. *)

module Inject : sig
  (** Seeded, deterministic crash injection.

      A config is a seed plus a list of rules.  Each rule names a
      guarded site, an optional provenance-substring filter, and a
      probability; a rule that fires raises {!Injected_fault} inside the
      guarded body.  Whether a given (site, provenance, attempt) crashes
      is decided by hashing [seed|crash|site|provenance|attempt] into
      [0, 1) and comparing against the largest matching rule probability
      — never by wall clock or RNG state, so decisions are reproducible
      and independent of scheduling.  Only tests build a config (and set
      it through [Optimize.config]'s [inject] field); there is no spec
      grammar and no CLI flag. *)

  type site = Solve | Integerize | Layer | Serve
  (** The guarded sites, as {!guard} names them: ["solve"],
      ["integerize"], ["layer"] and ["serve"]. *)

  type rule

  val rule : ?filter:string -> site -> float -> rule
  (** [rule ?filter site prob] crashes [site] with probability [prob],
      only for provenances containing [filter] as a substring when it is
      given.  Raises [Invalid_argument] unless [prob] is in [0, 1]. *)

  type t

  val none : t
  (** Seed 0, no rules; never fires. *)

  val make : seed:int -> rule list -> t

  val to_string : t -> string
  (** The config as text, e.g. ["seed=7,crash@solve=0.2,crash@layer[resnet-2]=1"]
      for seed 7, [rule Solve 0.2] and [rule ~filter:"resnet-2" Layer 1.0];
      {!Optimize.config_fingerprint} includes it. *)

  val crash : t -> site:string -> provenance:string -> attempt:int -> bool
  (** Whether the guarded body at [site] for [provenance] crashes. *)
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
    this site and provenance) into a {!failure} record carrying the
    site, the provenance and the exception text.  It reads no clock.
    [attempt] (default 0) enters the crash draw; only perfbench's stage
    replay passes it, always 0, and it goes with that replay (ROADMAP
    item 3). *)

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
