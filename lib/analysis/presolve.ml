module M = Symexpr.Monomial
module P = Symexpr.Posynomial

type mode = Prune | Off

let mode_name = function Prune -> "prune" | Off -> "off"

type side = Lo | Hi

type step = { var : string; side : side; bound : float; via : string }

type culprit_kind = Ineq_low | Eq_low | Eq_high

type proof = {
  steps : step list;
  culprit : string;
  kind : culprit_kind;
  bound : float;
}

type reduction = {
  reduced : Gp.Problem.t;
  fixed : (string * float) list;
  dropped : (string * float) list;
}

type verdict = Infeasible of proof | Feasible of reduction

type t = { box : (string * Interval.t) list; verdict : verdict }

let prune_margin = 1e-6

let drop_margin = 1e-6

(* A new endpoint must beat the old one by this relative amount to be
   recorded — both a proof-size and a termination guard (propagation
   also has a hard round cap). *)
let improve_margin = 1e-9

let max_rounds = 8

(* ------------------------------------------------------------------ *)
(* Lowering                                                           *)
(* ------------------------------------------------------------------ *)

(* The program is lowered once per call.  Variables are indices in
   [Gp.Problem.variables] order.  A term keeps its coefficient and its
   factors' variable indices and exponents in the monomial's own order,
   which is the order every interval product below folds in, so each
   endpoint is computed with the same operations, in the same order,
   as {!Interval.monomial} computes it. *)
type term = { coeff : float; vars : int array; exps : float array }

(* A constraint row.  Rows hold the inequalities, then the equalities
   (one term each), in the problem's order: the order propagation
   visits them. *)
type row = {
  name : string;
  terms : term array;
  support : int array;  (* its distinct variables *)
  eq : bool;
}

type lowered = {
  names : string array;
  rows : row array;
  n_ineqs : int;
  occurs : int list array;  (* per variable, the rows that mention it *)
  max_factors : int;  (* per term, at most *)
  max_terms : int;  (* per row, at most *)
}

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let lower problem =
  (* Index variables by first occurrence, then renumber them in name
     order, which is [Gp.Problem.variables]'s order. *)
  let ids = Names.create 32 in
  let id x =
    match Names.find_opt ids x with
    | Some i -> i
    | None ->
      let i = Names.length ids in
      Names.add ids x i;
      i
  in
  (* The objective enters only through its variables, which belong to
     the box even where no constraint mentions them. *)
  List.iter
    (fun m -> List.iter (fun (x, _) -> ignore (id x)) (M.exponents m))
    (P.terms (Gp.Problem.objective problem));
  let term m =
    let exps = M.exponents m in
    let n = List.length exps in
    let vars = Array.make n 0 and es = Array.make n 0.0 in
    List.iteri
      (fun i (x, e) ->
        vars.(i) <- id x;
        es.(i) <- e)
      exps;
    { coeff = M.coeff m; vars; exps = es }
  in
  let ineqs =
    List.map
      (fun (name, p) -> (name, Array.of_list (List.map term (P.terms p)), false))
      (Gp.Problem.ineqs problem)
  in
  let eqs = List.map (fun (name, m) -> (name, [| term m |], true)) (Gp.Problem.eqs problem) in
  let nvars = Names.length ids in
  let names = Array.make nvars "" in
  Names.iter (fun x i -> names.(i) <- x) ids;
  Array.sort String.compare names;
  let rank = Array.make nvars 0 in
  Array.iteri (fun i x -> rank.(Names.find ids x) <- i) names;
  let mark = Array.make nvars (-1) in
  let rows =
    Array.of_list
      (List.mapi
         (fun c (name, terms, eq) ->
           let support = ref [] in
           Array.iter
             (fun t ->
               Array.iteri
                 (fun i x ->
                   let x = rank.(x) in
                   t.vars.(i) <- x;
                   if mark.(x) <> c then begin
                     mark.(x) <- c;
                     support := x :: !support
                   end)
                 t.vars)
             terms;
           { name; terms; support = Array.of_list !support; eq })
         (ineqs @ eqs))
  in
  let occurs = Array.make nvars [] in
  Array.iteri (fun c r -> Array.iter (fun x -> occurs.(x) <- c :: occurs.(x)) r.support) rows;
  let max_over f = Array.fold_left (fun acc r -> Int.max acc (f r)) 0 rows in
  {
    names;
    rows;
    n_ineqs = List.length ineqs;
    occurs;
    max_factors =
      max_over (fun r -> Array.fold_left (fun n t -> Int.max n (Array.length t.vars)) 0 r.terms);
    max_terms = max_over (fun r -> Array.length r.terms);
  }

(* ------------------------------------------------------------------ *)
(* Propagation core                                                   *)
(* ------------------------------------------------------------------ *)

(* One recorded bound derivation, by variable and row index. *)
type mark = { x : int; side : side; bound : float; row : int }

exception Found_infeasible of mark list (* trail, latest first *) * int * culprit_kind * float

(* One propagation state: the box as two endpoint arrays plus
   (optionally) the trail of recorded steps, latest first.  The same
   core runs twice — once with recording for the main pass, once
   silently when re-verifying redundancy candidates against the kept
   constraints only.

   [dirty] holds, per row, whether one of its variables changed since
   its last visit began.  A visit reads nothing but its row and the
   endpoints of the row's variables, so a clean row's visit would
   repeat its previous one exactly: the same bounds, none of them an
   improvement (else that visit would have changed a variable of the
   row and left it dirty), and no infeasibility (else propagation would
   have stopped there).  Skipping it leaves the box, the trail and the
   round count as they were. *)
type state = {
  lw : lowered;
  lo : float array;
  hi : float array;
  dirty : bool array;
  record : bool;
  mutable trail : mark list;
  mutable changed : bool;
  lbs : float array;  (* buffer: term lower bounds of the row under visit *)
  f : float array;  (* buffer: factor lower bounds of the term under visit *)
}

let fresh_state ~record lw =
  let n = Array.length lw.names in
  {
    lw;
    lo = Array.make n 0.0;
    hi = Array.make n infinity;
    dirty = Array.make (Array.length lw.rows) true;
    record;
    trail = [];
    changed = false;
    lbs = Array.make lw.max_terms 0.0;
    f = Array.make lw.max_factors 0.0;
  }

(* The endpoints of {!Interval.pow} for the factor [x ** e]. *)
let pow_lo st x e =
  if e > 0.0 then st.lo.(x) ** e else if e < 0.0 then st.hi.(x) ** e else 1.0

let pow_hi st x e =
  if e > 0.0 then st.hi.(x) ** e else if e < 0.0 then st.lo.(x) ** e else 1.0

(* A term's interval endpoints over the current box, as
   {!Interval.monomial} folds them. *)
let term_lo st t =
  let acc = ref t.coeff in
  for i = 0 to Array.length t.vars - 1 do
    acc := Interval.mul_lo !acc (pow_lo st t.vars.(i) t.exps.(i))
  done;
  !acc

let term_hi st t =
  let acc = ref t.coeff in
  for i = 0 to Array.length t.vars - 1 do
    acc := Interval.mul_hi !acc (pow_hi st t.vars.(i) t.exps.(i))
  done;
  !acc

(* A row's interval lower and upper bound, as {!Interval.posynomial}
   sums them. *)
let row_lo st r = Array.fold_left (fun acc t -> acc +. term_lo st t) 0.0 r.terms

let row_hi st r = Array.fold_left (fun acc t -> acc +. term_hi st t) 0.0 r.terms

(* Raise when a row's interval bound certifies infeasibility: a lower
   bound finite and beyond the margin above 1, or an equality's upper
   bound beyond it below 1 (finite by construction). *)
let infeasible st c kind bound =
  if
    match kind with
    | Ineq_low | Eq_low -> Float.is_finite bound && bound > 1.0 +. prune_margin
    | Eq_high -> bound < 1.0 -. prune_margin
  then raise (Found_infeasible (st.trail, c, kind, bound))

(* A new endpoint on [side] of [x] from row [c] that crosses the other
   endpoint.  The crossing implies infeasibility: re-evaluate the row
   over the current box and raise with its culprit kind and bound when
   the margin holds.  An inequality certifies by its lower bound; an
   equality that pushed a lower endpoint too high is violated by its
   upper bound, and vice versa.  When the crossing is real but not
   provable beyond the margin, the update is skipped — the box stays a
   sound superset. *)
let cross st c side =
  let r = st.lw.rows.(c) in
  if not r.eq then infeasible st c Ineq_low (row_lo st r)
  else
    match side with
    | Lo -> infeasible st c Eq_high (term_hi st r.terms.(0))
    | Hi -> infeasible st c Eq_low (term_lo st r.terms.(0))

let tighten st c side x v =
  (match side with Lo -> st.lo.(x) <- v | Hi -> st.hi.(x) <- v);
  if st.record then st.trail <- { x; side; bound = v; row = c } :: st.trail;
  st.changed <- true;
  List.iter (fun r -> st.dirty.(r) <- true) st.lw.occurs.(x)

(* Tighten one endpoint of [x] to [v], implied by row [c], when [v]
   improves it beyond [improve_margin]. *)
let try_bound st c side x v =
  if Float.is_finite v && v > 0.0 then
    match side with
    | Hi ->
      if v < st.hi.(x) *. (1.0 -. improve_margin) then
        if v < st.lo.(x) then cross st c side else tighten st c Hi x v
    | Lo ->
      let cur = st.lo.(x) in
      if v > cur *. (1.0 +. improve_margin) && v > cur then
        if v > st.hi.(x) then cross st c side else tighten st c Lo x v

let visit_ineq st c r =
  let terms = r.terms and lbs = st.lbs and f = st.f in
  Array.iteri (fun k t -> lbs.(k) <- term_lo st t) terms;
  let total = ref 0.0 in
  Array.iteri (fun k _ -> total := !total +. lbs.(k)) terms;
  let total = !total in
  infeasible st c Ineq_low total;
  Array.iteri
    (fun k t ->
      (* The slack uses the term bounds from the start of the visit. *)
      let slack = 1.0 -. (total -. lbs.(k)) in
      if slack > 0.0 then begin
        (* The lower bound of the term's other factors caps x ** e.  A
           step from this term moves the endpoint of x that x's own
           factor lower bound does not read (hi for e > 0, lo for
           e < 0), so the factor bounds taken here hold for the whole
           term, and [prefix] then [rest] fold them in term order. *)
        let n = Array.length t.vars in
        for i = 0 to n - 1 do
          f.(i) <- pow_lo st t.vars.(i) t.exps.(i)
        done;
        let prefix = ref t.coeff in
        for j = 0 to n - 1 do
          let rest = ref !prefix in
          for i = j + 1 to n - 1 do
            rest := Interval.mul_lo !rest f.(i)
          done;
          let rest = !rest in
          if rest > 0.0 && Float.is_finite rest then begin
            (* x ** e <= slack / rest over every feasible point. *)
            let e = t.exps.(j) in
            let b = (slack /. rest) ** (1.0 /. e) in
            try_bound st c (if e > 0.0 then Hi else Lo) t.vars.(j) b
          end;
          prefix := Interval.mul_lo !prefix f.(j)
        done
      end)
    terms

let visit_eq st c r =
  let t = r.terms.(0) in
  infeasible st c Eq_low (term_lo st t);
  infeasible st c Eq_high (term_hi st t);
  Array.iteri
    (fun j x ->
      let rest_lo = ref t.coeff and rest_hi = ref t.coeff in
      Array.iteri
        (fun i y ->
          if i <> j then begin
            rest_lo := Interval.mul_lo !rest_lo (pow_lo st y t.exps.(i));
            rest_hi := Interval.mul_hi !rest_hi (pow_hi st y t.exps.(i))
          end)
        t.vars;
      (* x ** e = 1 / rest, so x ** e lies in the inverse interval. *)
      let p_lo = if !rest_hi = infinity then 0.0 else 1.0 /. !rest_hi in
      let p_hi = if !rest_lo = 0.0 then infinity else 1.0 /. !rest_lo in
      let e = t.exps.(j) in
      let ie = 1.0 /. e in
      let x_lo, x_hi =
        if e > 0.0 then (p_lo ** ie, p_hi ** ie) else (p_hi ** ie, p_lo ** ie)
      in
      try_bound st c Lo x x_lo;
      try_bound st c Hi x x_hi)
    t.vars

(* Visit the rows of [order] in rounds until a round changes nothing or
   the round cap is reached, skipping rows none of whose variables
   changed since their last visit began. *)
let propagate st order =
  let rounds = ref 0 in
  st.changed <- true;
  while st.changed && !rounds < max_rounds do
    st.changed <- false;
    incr rounds;
    Array.iter
      (fun c ->
        if st.dirty.(c) then begin
          st.dirty.(c) <- false;
          let r = st.lw.rows.(c) in
          if r.eq then visit_eq st c r else visit_ineq st c r
        end)
      order
  done

(* ------------------------------------------------------------------ *)
(* Proof slicing                                                      *)
(* ------------------------------------------------------------------ *)

(* Backward slice: walking the trail latest-first, keep a step iff its
   variable supports the culprit (or an already-kept step's implying
   constraint).  Every earlier step a kept step's bound rests on is
   reached later in the walk, so the slice is support-closed; the fold
   restores application order. *)
let slice lw trail culprit =
  let needed = Array.make (Array.length lw.names) false in
  let need c = Array.iter (fun x -> needed.(x) <- true) lw.rows.(c).support in
  need culprit;
  List.fold_left
    (fun kept m ->
      if needed.(m.x) then begin
        need m.row;
        { var = lw.names.(m.x); side = m.side; bound = m.bound; via = lw.rows.(m.row).name }
        :: kept
      end
      else kept)
    [] trail

(* ------------------------------------------------------------------ *)
(* Redundancy elimination                                             *)
(* ------------------------------------------------------------------ *)

(* The eliminated inequalities, by name, with their certified bound, in
   row order. *)
let redundant st =
  let lw = st.lw in
  let candidate = Array.init lw.n_ineqs (fun c -> row_hi st lw.rows.(c) <= 1.0 -. drop_margin) in
  if not (Array.exists Fun.id candidate) then []
  else begin
    (* A candidate's slackness may rest on bounds it propagated itself.
       Re-propagate from scratch with the kept constraints only; a
       candidate still slack over that (weaker) box is implied by the
       rest of the problem and safe to drop. *)
    let order =
      Array.of_list
        (List.filter
           (fun c -> c >= lw.n_ineqs || not candidate.(c))
           (List.init (Array.length lw.rows) Fun.id))
    in
    let st' = fresh_state ~record:false lw in
    match propagate st' order with
    | () ->
      List.filter_map
        (fun c ->
          if candidate.(c) then
            let ub = row_hi st' lw.rows.(c) in
            if ub <= 1.0 -. drop_margin then Some (lw.rows.(c).name, ub) else None
          else None)
        (List.init lw.n_ineqs Fun.id)
    | exception Found_infeasible _ ->
      (* The kept-only relaxation cannot be infeasible when the full
         problem was not; reachable only through margin corner cases —
         drop nothing, stay conservative. *)
      []
  end

(* The reduced problem is the input without the eliminated
   inequalities; with nothing to eliminate it is the input itself. *)
let reduction problem st =
  match redundant st with
  | [] -> { reduced = problem; fixed = []; dropped = [] }
  | dropped ->
    let keep name = not (List.mem_assoc name dropped) in
    { reduced = Gp.Problem.filter_ineqs keep problem; fixed = []; dropped }

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let box_list st =
  List.init (Array.length st.lw.names) (fun x ->
      (st.lw.names.(x), { Interval.lo = st.lo.(x); hi = st.hi.(x) }))

let analyze problem =
  let lw = lower problem in
  let st = fresh_state ~record:true lw in
  match propagate st (Array.init (Array.length lw.rows) Fun.id) with
  | () -> { box = box_list st; verdict = Feasible (reduction problem st) }
  | exception Found_infeasible (trail, culprit, kind, bound) ->
    let steps = slice lw trail culprit in
    {
      box = box_list st;
      verdict = Infeasible { steps; culprit = lw.rows.(culprit).name; kind; bound };
    }
