(* Stage replay of one optimization request, for the traced run.

   [run] calls the library's public stage functions in the order
   {!Thistle.Optimize.run} uses them on one domain, timing every call
   through [timer], and rebuilds the report from the results.  It covers
   the configurations the benchmark uses — the defaults (presolve
   pruning, dedupe, warm starts, the compiled kernel, the lint gate, no
   deadline, no fault injection, no shard or journal), with any [jobs],
   [max_choices] and [top_choices] — and refuses any other, so a change
   to the defaults shows up as an error rather than as a silently
   diverging replay.  The harness checks that the rebuilt report equals
   the one the library returns. *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module P = Thistle.Permutations
module I = Thistle.Integerize
module Pre = Analysis.Presolve
module Cert = Analysis.Certificate
module S = Gp.Solver
module J = Sweep.Journal

type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

type result = {
  report : (O.report, string) Stdlib.result;
  raw_choices : int;  (** permutation pairs before pruning *)
  programs : int;  (** (choice, placement) pairs formulated *)
  statuses : S.status list;  (** one per physical solver call, in order *)
}

let replayable (c : O.config) =
  let d = O.default_config in
  c.O.n_divisors = d.O.n_divisors && c.O.n_pow2 = d.O.n_pow2 && c.O.gp_tol = d.O.gp_tol
  && c.O.explore_placements = d.O.explore_placements
  && c.O.min_pe_utilization = d.O.min_pe_utilization
  && c.O.comm = d.O.comm && c.O.contention = d.O.contention && c.O.lint = d.O.lint
  && c.O.presolve = Pre.Prune && c.O.dedupe && c.O.warm_start
  && c.O.gp_kernel = `Compiled && c.O.solve_deadline_ms = None
  && c.O.retries = d.O.retries && c.O.inject = Robust.Inject.none
  && c.O.shard = d.O.shard && c.O.journal = None && not c.O.resume

let run ~(timer : timer) ~(config : O.config) tech arch_mode objective nest =
  if not (replayable config) then invalid_arg "Replay.run: configuration not replayable";
  let t = timer.time in
  let plan = t "permutations.enumerate" (fun () -> P.enumerate ~max_choices:config.O.max_choices nest) in
  let placements = plan.P.placements in
  let nplac = Int.max 1 (List.length placements) in
  let pairs =
    Array.of_list
      (List.concat_map (fun cv -> List.map (fun pl -> (cv, pl)) placements) plan.P.choices)
  in
  let npairs = Array.length pairs in
  let statuses = ref [] in
  let finish report = { report; raw_choices = plan.P.raw_count; programs = npairs; statuses = List.rev !statuses } in
  (* Stage A: formulate, lint, key and presolve every pair.  An
     infeasibility verdict stands only once its proof re-checks. *)
  let presolve (inst : F.instance) =
    let problem = inst.F.problem in
    match t "analysis.presolve" (fun () -> Pre.analyze problem) with
    | exception _ -> None
    | r -> (
      match r.Pre.verdict with
      | Pre.Feasible _ -> Some r
      | Pre.Infeasible proof -> (
        match t "analysis.certify" (fun () -> Cert.check_prune problem proof) with
        | Ok () -> Some r
        | Error _ ->
          Some { r with Pre.verdict = Pre.Feasible { Pre.reduced = problem; fixed = []; dropped = [] } }))
  in
  match
    Array.map
      (fun (cv, placement) ->
        let inst =
          t "formulate.build" (fun () ->
              F.build ~placement ~comm:config.O.comm tech arch_mode objective plan cv)
        in
        Analysis.Lint.gate config.O.lint (t "formulate.lint" (fun () -> F.lint inst));
        (inst, t "optimize.key" (fun () -> O.problem_key inst.F.problem), presolve inst))
      pairs
  with
  | exception Analysis.Lint.Rejected _ -> finish (Error "lint rejected a formulation")
  | inst ->
  let fates : (J.fate * S.stats) option array = Array.make npairs None in
  Array.iteri
    (fun i (_, _, pre) ->
      match pre with
      | Some { Pre.verdict = Pre.Infeasible proof; _ } -> fates.(i) <- Some (J.Pruned proof, S.fresh_stats ())
      | _ -> ())
    inst;
  let solve_pair ?warm_start i =
    let (inst : F.instance), _, pre = inst.(i) in
    let problem, fixed =
      match pre with
      | Some { Pre.verdict = Pre.Feasible red; _ } -> (red.Pre.reduced, red.Pre.fixed)
      | _ -> (inst.F.problem, [])
    in
    if fixed <> [] && Gp.Problem.variables problem = [] then
      ( J.Solved
          {
            S.status = S.Optimal;
            objective = Symexpr.Posynomial.eval (fun _ -> 1.0) (Gp.Problem.objective problem);
            values = fixed;
          },
        S.fresh_stats () )
    else
      let rec attempt a =
        let st = S.fresh_stats () in
        let r =
          Robust.guard ~attempt:a ~site:"solve" ~provenance:inst.F.provenance (fun () ->
              t "gp.solve" (fun () ->
                  S.solve ~tol:config.O.gp_tol ~stats:st ~kernel:`Compiled
                    ~initial_reg:(if a = 0 then 1e-9 else 1e-5)
                    ?warm_start problem))
        in
        match r with
        | Ok sol ->
          statuses := sol.S.status :: !statuses;
          let sol = if fixed = [] then sol else { sol with S.values = sol.S.values @ fixed } in
          (J.Solved sol, st)
        | Error f -> if a < config.O.retries then attempt (a + 1) else (J.Quarantined f, st)
      in
      attempt 0
  in
  (* Two waves with dedupe, as in the library: pinned placements cold,
     then the rest warm-started from their choice's pinned solution. *)
  let reps = Hashtbl.create (2 * npairs) in
  let is_rep i =
    let _, key, _ = inst.(i) in
    if Hashtbl.mem reps key then false
    else begin
      Hashtbl.replace reps key i;
      true
    end
  in
  let copy_dup i =
    let (dup : F.instance), key, _ = inst.(i) in
    let fate, st = Option.get fates.(Hashtbl.find reps key) in
    let st' = S.fresh_stats () in
    S.copy_stats ~into:st' st;
    let fate =
      match fate with
      | J.Quarantined f -> J.Quarantined { f with Robust.provenance = dup.F.provenance }
      | fate -> fate
    in
    fates.(i) <- Some (fate, st')
  in
  let all = List.init npairs Fun.id in
  let pinned, others = List.partition (fun i -> i mod nplac = 0) all in
  let wave1 = List.filter (fun i -> is_rep i && fates.(i) = None) pinned in
  List.iter (fun i -> fates.(i) <- Some (solve_pair i)) wave1;
  List.iter (fun i -> if fates.(i) = None then copy_dup i) pinned;
  let warm_of i =
    match fates.(i / nplac * nplac) with
    | Some (J.Solved sol, _) when sol.S.status <> S.Infeasible && sol.S.values <> [] ->
      Some sol.S.values
    | _ -> None
  in
  let wave2 =
    List.filter_map (fun i -> if is_rep i && fates.(i) = None then Some (i, warm_of i) else None) others
  in
  List.iter (fun (i, warm_start) -> fates.(i) <- Some (solve_pair ?warm_start i)) wave2;
  List.iter (fun i -> if fates.(i) = None then copy_dup i) others;
  let fate i = Option.get fates.(i) in
  (* Certificate check of every usable solution. *)
  let solved =
    List.filter_map
      (fun i ->
        let (inst : F.instance), _, _ = inst.(i) in
        match fst (fate i) with
        | J.Solved sol
          when (sol.S.status = S.Optimal || sol.S.status = S.Iteration_limit)
               && Float.is_finite sol.S.objective ->
          let cert =
            t "analysis.certify" (fun () ->
                Cert.check ~provenance:inst.F.provenance inst.F.problem (F.solution_env inst sol))
          in
          if Cert.hard_failure cert then None else Some (inst, sol)
        | _ -> None)
      all
  in
  let solve_totals = List.fold_left (fun acc i -> S.accumulate acc (snd (fate i))) S.zero_totals all in
  let quarantined =
    List.filter_map (fun i -> match fst (fate i) with J.Quarantined f -> Some f | _ -> None) all
  in
  let pruned =
    List.filter_map
      (fun i ->
        match fst (fate i) with
        | J.Pruned proof ->
          let (inst : F.instance), _, _ = inst.(i) in
          Some (inst.F.provenance, proof)
        | _ -> None)
      all
  in
  if solved = [] then finish (Error "no permutation choice produced a feasible program")
  else
    let ranked =
      t "optimize.rank" (fun () ->
          List.stable_sort (fun (_, a) (_, b) -> O.compare_scores a.S.objective b.S.objective) solved)
    in
    let shortlisted = List.filteri (fun k _ -> k < config.O.top_choices) ranked in
    let staged =
      List.map
        (fun ((inst : F.instance), sol) ->
          Robust.guard ~site:"integerize" ~provenance:inst.F.provenance (fun () ->
              t "integerize.run" (fun () ->
                  I.run ~n_divisors:config.O.n_divisors ~n_pow2:config.O.n_pow2
                    ~min_pe_utilization:config.O.min_pe_utilization
                    ~contention:config.O.contention tech inst sol)))
        shortlisted
    in
    let outcomes = List.filter_map (function Ok (Ok o) -> Some o | _ -> None) staged in
    let failures = quarantined @ List.filter_map (function Error f -> Some f | Ok _ -> None) staged in
    let best =
      t "optimize.select" (fun () ->
          O.select_best ~score:(fun o -> I.score objective o.I.metrics) outcomes)
    in
    finish
      (match best with
      | None -> Error "no integer candidate survived model evaluation"
      | Some outcome ->
        Ok
          {
            O.outcome;
            choices_enumerated = List.length plan.P.choices;
            choices_solved = List.length solved;
            best_continuous = (snd (List.hd ranked)).S.objective;
            solve_totals;
            failures;
            pruned;
          })
