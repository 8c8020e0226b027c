(** Presolve: interval bound propagation over a geometric program, with
    static infeasibility proofs and redundant-constraint elimination
    (DESIGN §13).

    The pass derives a per-variable box (an {!Interval.t} over the
    positive axis) by fixed-point propagation:

    - an inequality [sum_k m_k <= 1] bounds each variable of each term:
      with [L(m)] a term's interval lower bound, the slack
      [1 - sum_{j<>k} L(m_j)] caps [m_k], and dividing out the interval
      lower bound of the term's other factors caps [x ** e] — an upper
      bound on [x] for [e > 0], a lower bound for [e < 0];
    - a monomial equality [g = 1] pins each of its variables to the
      inverse of the interval of the remaining factors.

    Propagation is {e sound}: the box always contains every feasible
    point of the problem.  Two verdicts follow:

    - {b infeasibility}: a constraint whose interval lower bound over
      the box exceeds 1 (or an equality whose upper bound falls below
      1) has no feasible point.  The verdict carries a machine-checkable
      {!proof}: the bound-derivation steps that built the relevant part
      of the box (backward-sliced from the culprit constraint) plus the
      culprit's certified bound.  {!Certificate.check_prune} replays it
      independently;
    - {b redundancy}: an inequality whose interval {e upper} bound over
      the box stays below 1 can never be active.  Because that bound may
      itself rest on the candidate's own propagation, candidates are
      re-verified against a box re-propagated from the {e kept}
      constraints only before being dropped.

    All decisions carry margins ({!prune_margin}, {!drop_margin}) far
    wider than float rounding, so the non-directed endpoint arithmetic
    of {!Interval} cannot flip a verdict. *)

type mode =
  | Prune  (** act on the verdicts: skip solves, shrink problems *)
  | Off  (** skip the pass *)

val mode_name : mode -> string

type side = Lo | Hi

type step = {
  var : string;
  side : side;  (** which endpoint the step tightens *)
  bound : float;  (** the new endpoint value *)
  via : string;  (** name of the constraint that implies it *)
}
(** One bound derivation: "every feasible point has [var] on the [side]
    of [bound], because of constraint [via] over the box so far". *)

type culprit_kind =
  | Ineq_low  (** inequality interval lower bound over the box [> 1] *)
  | Eq_low  (** equality interval lower bound over the box [> 1] *)
  | Eq_high  (** equality interval upper bound over the box [< 1] *)

type proof = {
  steps : step list;  (** in application order, backward-sliced *)
  culprit : string;  (** the statically violated constraint *)
  kind : culprit_kind;
  bound : float;  (** the culprit's certified interval bound *)
}

type reduction = {
  reduced : Gp.Problem.t;
      (** the problem without the eliminated inequalities; physically
          the input problem when [dropped] is empty, so the
          no-reduction path is bit-for-bit the no-presolve path *)
  fixed : (string * float) list;
      (** always empty: the pass fixes no variable.  The field remains
          only because [perfbench/replay.ml] reads it; it goes with that
          replay. *)
  dropped : (string * float) list;
      (** eliminated inequalities with their certified interval upper
          bound over the box, in original constraint order *)
}

type verdict = Infeasible of proof | Feasible of reduction

type t = {
  box : (string * Interval.t) list;  (** propagated box, sorted by name *)
  verdict : verdict;
}

val prune_margin : float
(** Infeasibility requires the culprit bound beyond 1 by this relative
    margin (1e-6 — comfortably above the solver's feasibility
    tolerance, so a statically pruned pair can never be one the solver
    would have accepted as borderline-feasible). *)

val drop_margin : float
(** Elimination requires the inequality's upper bound below [1 -]
    this margin (1e-6), so a dropped constraint is strictly slack over
    the whole box — never one that could be active at an optimum. *)

val analyze : Gp.Problem.t -> t
(** Run propagation to a fixed point and classify.  Deterministic: a
    pure function of the problem (constraint and term order included),
    never of timing — the verdict decides which pairs the sweep solves
    and enters the §9 counter contract. *)
