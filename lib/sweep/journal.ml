(** What became of one (choice x placement) pair of a sweep: the slot
    type of {!Thistle.Optimize.run} and of perfbench's stage replay.

    Sweeps are not journaled (DESIGN §12); the type stays under this
    name only because the replay names it, and moves with that replay. *)
type fate =
  | Solved of Gp.Solver.solution
  | Quarantined of Robust.failure
  | Pruned of Analysis.Presolve.proof
      (** statically infeasible: never solved; the proof is
          re-checkable via {!Analysis.Certificate.check_prune} *)
