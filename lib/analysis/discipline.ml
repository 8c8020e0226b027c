module M = Symexpr.Monomial
module P = Symexpr.Posynomial

let pass = "discipline"

let check ?provenance problem =
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
  let ineqs = Gp.Problem.ineqs problem in
  let eqs = Gp.Problem.eqs problem in
  (* Constant constraints: infeasible ones can never be repaired by the
     solver; feasible ones are vacuous. *)
  let ones _ = 1.0 in
  List.iter
    (fun (name, p) ->
      if List.for_all M.is_constant (P.terms p) then begin
        let v = P.eval ones p in
        if v > 1.0 +. 1e-9 then
          error ~constraint_name:name
            "constant constraint %g <= 1 is infeasible" v
        else
          warning ~constraint_name:name "constant constraint %g <= 1 is vacuous"
            v
      end)
    ineqs;
  List.iter
    (fun (name, m) ->
      if M.is_constant m then begin
        let c = M.coeff m in
        if Float.abs (c -. 1.0) > 1e-9 then
          error ~constraint_name:name "constant equality %g = 1 is infeasible"
            c
        else
          warning ~constraint_name:name "constant equality 1 = 1 is vacuous"
      end)
    eqs;
  (* Boundedness in log space.  Minimizing pushes a variable toward 0 when
     all its objective exponents are positive (toward infinity when all
     negative); unless some constraint blocks that direction — a negative
     (resp. positive) exponent in an inequality [f <= 1], or membership in
     a monomial equality, which ties the variable to the others — the
     infimum is approached only in the limit and the solver diverges. *)
  let bounded_below = Hashtbl.create 16 and bounded_above = Hashtbl.create 16 in
  List.iter
    (fun (_, p) ->
      List.iter
        (fun m ->
          List.iter
            (fun (x, e) ->
              if e < 0.0 then Hashtbl.replace bounded_below x ()
              else if e > 0.0 then Hashtbl.replace bounded_above x ())
            (M.exponents m))
        (P.terms p))
    ineqs;
  List.iter
    (fun (_, m) ->
      List.iter
        (fun x ->
          Hashtbl.replace bounded_below x ();
          Hashtbl.replace bounded_above x ())
        (M.variables m))
    eqs;
  let objective_signs = Hashtbl.create 16 in
  List.iter
    (fun m ->
      List.iter
        (fun (x, e) ->
          let pos, neg =
            Option.value ~default:(false, false)
              (Hashtbl.find_opt objective_signs x)
          in
          Hashtbl.replace objective_signs x (pos || e > 0.0, neg || e < 0.0))
        (M.exponents m))
    (P.terms (Gp.Problem.objective problem));
  let in_objective =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun x s acc -> (x, s) :: acc) objective_signs [])
  in
  List.iter
    (fun (x, (pos, neg)) ->
      if pos && (not neg) && not (Hashtbl.mem bounded_below x) then
        error
          "objective is unbounded below in log space: no constraint bounds %s \
           away from 0"
          x
      else if neg && (not pos) && not (Hashtbl.mem bounded_above x) then
        error
          "objective is unbounded below in log space: no constraint bounds %s \
           away from infinity"
          x)
    in_objective;
  List.rev !diags
