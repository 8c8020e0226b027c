(** Fault isolation for the optimizer sweep (DESIGN §11).

    The pipeline solves one geometric program per (permutation choice ×
    window placement) across every layer of a network; at that scale one
    pathological instance must not take down the run.  This module
    provides the pieces the drivers thread through the stack:

    - {!guard} runs a pair/layer body and catches any exception into a
      structured {!failure} record (provenance, exception, backtrace,
      elapsed time) instead of letting it propagate through
      {!Exec.Par}'s re-raise contract;
    - {!Inject} is a {e deterministic} crash-injection config — whether
      a site crashes is a pure function of a seed and the site's
      provenance string, never of wall-clock time or scheduling — so the
      quarantine paths are testable and independent of [--jobs].

    A failure is final: nothing is retried, because every solve is
    already bounded and a guarded body that raised once is deterministic
    in its inputs.  The quarantine policy that consumes failures lives
    in {!Optimize}. *)

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
}

val describe : failure -> string
(** One-line rendering: site, exception, provenance. *)

val pp_summary : Format.formatter -> failure list -> unit
(** Table of failures (site, elapsed ms, exception, provenance) — the
    report's quarantine summary. *)

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
      and independent of scheduling.  Only tests set a config (through
      [Optimize.config]'s [inject] field); no CLI flag does. *)

  type t

  val none : t
  (** No rules; never fires. *)

  val parse : string -> (t, string) result
  (** Parse a spec string.  Grammar (comma-separated clauses):

      {v
      SPEC   ::= clause ("," clause)*
      clause ::= "seed=" INT
               | "crash@" SITE [ "[" FILTER "]" ] "=" PROB
      v}

      [SITE] is a guarded site: [solve], [integerize], [layer] or
      [serve].  Any other site is an [Error], so a typo cannot make an
      injected run pass without injecting anything.  [FILTER] restricts
      the rule to provenances containing it as a substring; [PROB] is a
      float in [0, 1].  Example: ["seed=7,crash@solve=0.2,crash@layer[resnet-2]=1"]. *)

  val to_string : t -> string
  (** Canonical spec text; [parse (to_string t)] round-trips. *)

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
    provenance, the exception text, the backtrace and the elapsed time.
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
