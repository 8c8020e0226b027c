module P = Symexpr.Posynomial
module M = Symexpr.Monomial

type t = {
  objective : P.t;
  ineqs : (string * P.t) list;
  eqs : (string * M.t) list;
}

let make ~objective ?(ineqs = []) ?(eqs = []) () =
  if P.is_zero objective then invalid_arg "Gp.Problem.make: zero objective";
  List.iter
    (fun (name, p) ->
      if P.is_zero p then
        invalid_arg (Printf.sprintf "Gp.Problem.make: zero inequality %S" name))
    ineqs;
  let names = List.map fst ineqs @ List.map fst eqs in
  List.iter
    (fun name ->
      if String.length name = 0 then
        invalid_arg "Gp.Problem.make: empty constraint name")
    names;
  (let rec dup = function
     | a :: (b :: _ as rest) ->
       if String.equal a b then
         invalid_arg
           (Printf.sprintf "Gp.Problem.make: duplicate constraint name %S" a)
       else dup rest
     | _ -> ()
   in
   dup (List.sort String.compare names));
  { objective; ineqs; eqs }

let objective p = p.objective

let ineqs p = p.ineqs

let eqs p = p.eqs

let le p m = P.div_monomial p m

let le_const p c =
  if not (c > 0.0) then invalid_arg "Gp.Problem.le_const: bound must be positive";
  P.div_monomial p (M.const c)

let eq m1 m2 = M.div m1 m2

let filter_ineqs keep prob =
  { prob with ineqs = List.filter (fun (name, _) -> keep name) prob.ineqs }

let variables prob =
  let of_ineq (_, p) = P.variables p in
  let of_eq (_, m) = M.variables m in
  List.sort_uniq String.compare
    (P.variables prob.objective
    @ List.concat_map of_ineq prob.ineqs
    @ List.concat_map of_eq prob.eqs)

let violations ?(tol = 1e-6) prob env =
  (* Non-finite evaluations are violations, not noise: [nan > tol] is
     [false], so without the explicit classification a constraint that
     evaluates to NaN (e.g. [log] of a non-positive equality value) would
     silently report as feasible. *)
  let ineq_violation (name, p) =
    let value = P.eval env p in
    if not (Float.is_finite value) then Some (name, Float.infinity)
    else
      let v = value -. 1.0 in
      if v > tol then Some (name, v) else None
  in
  let eq_violation (name, m) =
    let value = M.eval env m in
    if not (Float.is_finite value && value > 0.0) then
      Some (name, Float.infinity)
    else
      let v = Float.abs (log value) in
      if v > tol then Some (name, v) else None
  in
  List.filter_map ineq_violation prob.ineqs
  @ List.filter_map eq_violation prob.eqs

let is_feasible ?tol prob env = violations ?tol prob env = []

let pp ppf prob =
  Format.fprintf ppf "@[<v>minimize %a" P.pp prob.objective;
  List.iter
    (fun (name, p) -> Format.fprintf ppf "@,s.t. [%s] %a <= 1" name P.pp p)
    prob.ineqs;
  List.iter
    (fun (name, m) -> Format.fprintf ppf "@,s.t. [%s] %a = 1" name M.pp m)
    prob.eqs;
  Format.fprintf ppf "@]"
