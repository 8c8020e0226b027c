module P = Symexpr.Posynomial

let pass = "certificate"

type t = {
  objective_value : float;
  violations : (string * float) list;
  max_violation : float;
  diagnostics : Diagnostic.t list;
}

let check ?(tol = 1e-4) ?provenance problem env =
  let diags = ref [] in
  let emit mk ?constraint_name fmt =
    Printf.ksprintf
      (fun message ->
        diags := mk ~pass ?constraint_name ?provenance message :: !diags)
      fmt
  in
  let error ?constraint_name fmt = emit Diagnostic.error ?constraint_name fmt in
  let warning ?constraint_name fmt =
    emit Diagnostic.warning ?constraint_name fmt
  in
  let objective_value = P.eval env (Gp.Problem.objective problem) in
  if not (Float.is_finite objective_value) then
    error "objective evaluates to %g at the solution" objective_value;
  (* Every occurrence is checked where it stands; only the names that
     fail are sorted, so the diagnostics keep name order. *)
  let bad = ref [] in
  let mono m =
    List.iter
      (fun (x, _) ->
        let v = env x in
        if not (Float.is_finite v && v > 0.0) then bad := x :: !bad)
      (Symexpr.Monomial.exponents m)
  in
  let poly p = List.iter mono (P.terms p) in
  poly (Gp.Problem.objective problem);
  List.iter (fun (_, p) -> poly p) (Gp.Problem.ineqs problem);
  List.iter (fun (_, m) -> mono m) (Gp.Problem.eqs problem);
  List.iter
    (fun x -> error "variable %s = %g is not finite positive" x (env x))
    (List.sort_uniq String.compare !bad);
  let violations = Gp.Problem.violations ~tol problem env in
  let max_violation =
    List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 violations
  in
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then
        error ~constraint_name:name
          "constraint evaluates non-finite at the solution"
      else warning ~constraint_name:name "violated by %g (tol %g)" v tol)
    violations;
  { objective_value; violations; max_violation; diagnostics = List.rev !diags }

let hard_failure t = List.exists Diagnostic.is_error t.diagnostics

(* ------------------------------------------------------------------ *)
(* Presolve proof checking                                            *)
(* ------------------------------------------------------------------ *)

(* Verification slack for the step-infeasibility and claimed-bound
   comparisons: the checker re-derives every quantity with interval
   arithmetic of its own, so honest proofs agree to rounding while a
   tampered bound misses by construction (presolve only records steps
   that improve an endpoint by more than its own margin). *)
let check_tol = 1e-6

let check_prune problem (proof : Presolve.proof) =
  let exception Reject of string in
  let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt in
  let box = Hashtbl.create 32 in
  List.iter
    (fun x -> Hashtbl.replace box x Interval.full)
    (Gp.Problem.variables problem);
  let env x =
    match Hashtbl.find_opt box x with
    | Some i -> i
    | None -> reject "step references unknown variable %s" x
  in
  let constraint_of name =
    match List.assoc_opt name (Gp.Problem.ineqs problem) with
    | Some p -> `Ineq p
    | None -> (
      match List.assoc_opt name (Gp.Problem.eqs problem) with
      | Some m -> `Eq m
      | None -> reject "unknown constraint %s" name)
  in
  let verify_step (s : Presolve.step) =
    if not (Float.is_finite s.Presolve.bound && s.Presolve.bound > 0.0) then
      reject "step on %s carries non-finite or non-positive bound %g" s.Presolve.var
        s.Presolve.bound;
    let cur = env s.Presolve.var in
    (* The region the step excludes, as a box restriction: x beyond the
       claimed endpoint. *)
    let excluded =
      match s.Presolve.side with
      | Presolve.Hi -> { cur with Interval.lo = s.Presolve.bound }
      | Presolve.Lo -> { cur with Interval.hi = s.Presolve.bound }
    in
    let env' x = if String.equal x s.Presolve.var then excluded else env x in
    (* The step is sound iff the excluded region is infeasible under the
       implying constraint alone: its interval lower bound there reaches
       1 (an inequality or equality pushed too high), or — for a
       lower-bound step from an equality — its upper bound falls to 1. *)
    let ok =
      match (constraint_of s.Presolve.via, s.Presolve.side) with
      | `Ineq p, _ -> (Interval.posynomial env' p).Interval.lo >= 1.0 -. check_tol
      | `Eq m, Presolve.Hi -> (Interval.monomial env' m).Interval.lo >= 1.0 -. check_tol
      | `Eq m, Presolve.Lo -> (Interval.monomial env' m).Interval.hi <= 1.0 +. check_tol
    in
    if not ok then
      reject "step %s %s %g not implied by %s over the replayed box" s.Presolve.var
        (match s.Presolve.side with Presolve.Hi -> "<=" | Presolve.Lo -> ">=")
        s.Presolve.bound s.Presolve.via;
    (* Apply the (verified sound) claimed endpoint. *)
    Hashtbl.replace box s.Presolve.var
      (match s.Presolve.side with
      | Presolve.Hi -> { cur with Interval.hi = Float.min cur.Interval.hi s.Presolve.bound }
      | Presolve.Lo -> { cur with Interval.lo = Float.max cur.Interval.lo s.Presolve.bound })
  in
  try
    List.iter verify_step proof.Presolve.steps;
    let recomputed =
      match (constraint_of proof.Presolve.culprit, proof.Presolve.kind) with
      | `Ineq p, Presolve.Ineq_low -> (Interval.posynomial env p).Interval.lo
      | `Eq m, Presolve.Eq_low -> (Interval.monomial env m).Interval.lo
      | `Eq m, Presolve.Eq_high -> (Interval.monomial env m).Interval.hi
      | `Ineq _, (Presolve.Eq_low | Presolve.Eq_high) | `Eq _, Presolve.Ineq_low ->
        reject "culprit kind does not match the class of constraint %s"
          proof.Presolve.culprit
    in
    if not (Float.is_finite recomputed) then
      reject "culprit %s re-evaluates to non-finite bound %g" proof.Presolve.culprit
        recomputed;
    if
      Float.abs (recomputed -. proof.Presolve.bound)
      > check_tol *. Float.max 1.0 (Float.abs recomputed)
    then
      reject "culprit %s bound mismatch: claimed %g, recomputed %g"
        proof.Presolve.culprit proof.Presolve.bound recomputed;
    let violated =
      match proof.Presolve.kind with
      | Presolve.Ineq_low | Presolve.Eq_low ->
        recomputed > 1.0 +. Presolve.prune_margin
      | Presolve.Eq_high -> recomputed < 1.0 -. Presolve.prune_margin
    in
    if not violated then
      reject "culprit %s bound %g does not violate 1 beyond the margin"
        proof.Presolve.culprit recomputed;
    Ok ()
  with Reject m -> Error m
