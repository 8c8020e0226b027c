(* Tests for the presolve pass: the interval substrate's hazard cases
   (0 * inf products, negative-exponent powers), hand-built propagation
   verdicts with machine-checked proofs, tampered-proof rejection by the
   independent checker, a QCheck soundness property (the propagated box
   always contains a known feasible point), and the end-to-end contracts
   over a capacity-starved architecture: the audit's differential check
   finds no verdict the solver contradicts, and Prune mode selects a
   bit-identical outcome to Off while actually pruning pairs.  A
   reference propagator, the string-keyed pass, must give the same
   result bit for bit on zoo programs and on random programs that reach
   every path. *)

module M = Symexpr.Monomial
module P = Symexpr.Posynomial
module Iv = Analysis.Interval
module Ps = Analysis.Presolve
module Cert = Analysis.Certificate
module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module Arch = Archspec.Arch
module Evaluate = Accmodel.Evaluate
module Mapping = Mapspace.Mapping

let tech = Archspec.Technology.table3

let raises_invalid name f =
  Alcotest.(check bool) name true
    (match f () with () -> false | exception Invalid_argument _ -> true)

let check_interval name expected got =
  Alcotest.(check (float 0.0)) (name ^ ".lo") expected.Iv.lo got.Iv.lo;
  Alcotest.(check (float 0.0)) (name ^ ".hi") expected.Iv.hi got.Iv.hi

(* --- interval arithmetic: the 0 * inf and endpoint-swap hazards --- *)

let test_interval_products () =
  Alcotest.(check (float 0.0)) "mul_lo 0 inf" 0.0 (Iv.mul_lo 0.0 Float.infinity);
  Alcotest.(check (float 0.0)) "mul_lo inf 0" 0.0 (Iv.mul_lo Float.infinity 0.0);
  Alcotest.(check (float 0.0)) "mul_hi 0 inf" Float.infinity
    (Iv.mul_hi 0.0 Float.infinity);
  check_interval "[0,1]*[2,inf]"
    { Iv.lo = 0.0; hi = Float.infinity }
    (Iv.mul (Iv.make ~lo:0.0 ~hi:1.0) (Iv.make ~lo:2.0 ~hi:Float.infinity));
  check_interval "point product" (Iv.point 6.0) (Iv.mul (Iv.point 2.0) (Iv.point 3.0))

let test_interval_powers () =
  (* Negative exponents swap the endpoints; the full axis is a fixed
     point of every power. *)
  check_interval "[2,3]^-1"
    { Iv.lo = 1.0 /. 3.0; hi = 0.5 }
    (Iv.pow (Iv.make ~lo:2.0 ~hi:3.0) (-1.0));
  check_interval "full^-2 stays full" Iv.full (Iv.pow Iv.full (-2.0));
  check_interval "x^0 is 1" (Iv.point 1.0) (Iv.pow Iv.full 0.0);
  check_interval "inv of [0,2]"
    { Iv.lo = 0.5; hi = Float.infinity }
    (Iv.inv (Iv.make ~lo:0.0 ~hi:2.0))

let test_interval_guards_and_mem () =
  raises_invalid "make lo > hi" (fun () -> ignore (Iv.make ~lo:2.0 ~hi:1.0));
  raises_invalid "make negative lo" (fun () -> ignore (Iv.make ~lo:(-1.0) ~hi:1.0));
  raises_invalid "make nan" (fun () -> ignore (Iv.make ~lo:Float.nan ~hi:1.0));
  raises_invalid "point 0" (fun () -> ignore (Iv.point 0.0));
  raises_invalid "point inf" (fun () -> ignore (Iv.point Float.infinity));
  let i = Iv.make ~lo:2.0 ~hi:3.0 in
  Alcotest.(check bool) "endpoint is a member" true (Iv.mem 2.0 i);
  Alcotest.(check bool) "outside is not" false (Iv.mem 1.99 i);
  Alcotest.(check bool) "slack relaxes the endpoint" true
    (Iv.mem ~slack:1e-2 1.99 i);
  Alcotest.(check bool) "nan is never a member" false (Iv.mem Float.nan i);
  Alcotest.(check bool) "inf outside a bounded side" false (Iv.mem Float.infinity i)

let test_interval_monomials () =
  let env = function
    | "x" -> Iv.make ~lo:1.0 ~hi:2.0
    | "y" -> Iv.make ~lo:2.0 ~hi:4.0
    | _ -> Iv.full
  in
  (* 3 x y^-1 over x in [1,2], y in [2,4]: [3/4, 3]. *)
  check_interval "3 x y^-1"
    { Iv.lo = 0.75; hi = 3.0 }
    (Iv.monomial env (M.make 3.0 [ ("x", 1.0); ("y", -1.0) ]));
  check_interval "posynomial sums termwise"
    { Iv.lo = 1.75; hi = 5.0 }
    (Iv.posynomial env (P.add (P.var "x") (P.of_monomial (M.make 3.0 [ ("x", 1.0); ("y", -1.0) ]))))

(* --- propagation verdicts on hand-built programs --- *)

(* x >= 2 (as 2 x^-1 <= 1) against x <= 1: statically infeasible. *)
let conflicting =
  Gp.Problem.make ~objective:(P.var "x")
    ~ineqs:
      [ ("x>=2", P.of_monomial (M.make 2.0 [ ("x", -1.0) ])); ("x<=1", P.var "x") ]
    ()

let require_infeasible name problem =
  match (Ps.analyze problem).Ps.verdict with
  | Ps.Infeasible proof ->
    (match Cert.check_prune problem proof with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: checker rejected analyze's proof: %s" name msg);
    proof
  | Ps.Feasible _ -> Alcotest.failf "%s: expected infeasible" name

let test_infeasible_bound_conflict () =
  let proof = require_infeasible "bound conflict" conflicting in
  Alcotest.(check bool) "bound violates 1 beyond the margin" true
    (proof.Ps.bound > 1.0 +. Ps.prune_margin)

let test_infeasible_constant_term () =
  (* A constant term above 1 needs no propagation at all. *)
  let problem =
    Gp.Problem.make ~objective:(P.var "x")
      ~ineqs:[ ("cap", P.add (P.const 2.0) (P.var "x")) ]
      ()
  in
  let proof = require_infeasible "constant term" problem in
  Alcotest.(check string) "culprit is the capacity constraint" "cap" proof.Ps.culprit;
  Alcotest.(check bool) "kind" true (proof.Ps.kind = Ps.Ineq_low)

let test_infeasible_equality () =
  (* x y = 8 cannot hold under x <= 2, y <= 2 (product tops out at 4). *)
  let problem =
    Gp.Problem.make
      ~objective:(P.add (P.var "x") (P.var "y"))
      ~ineqs:
        [
          ("x<=2", P.of_monomial (M.make 0.5 [ ("x", 1.0) ]));
          ("y<=2", P.of_monomial (M.make 0.5 [ ("y", 1.0) ]));
        ]
      ~eqs:[ ("xy=8", Gp.Problem.eq (M.mul (M.var "x") (M.var "y")) (M.const 8.0)) ]
      ()
  in
  ignore (require_infeasible "equality conflict" problem)

let test_monotone_left_free () =
  (* Minimizing x y with both variables bounded below: an optimum sits
     at the lower endpoints, but the pass fixes no variable.  It records
     the box and hands the solver the program itself; neither bound is
     slack over the box, so nothing is dropped. *)
  let problem =
    Gp.Problem.make
      ~objective:(P.of_monomial (M.mul (M.var "x") (M.var "y")))
      ~ineqs:
        [
          ("x>=2", P.of_monomial (M.make 2.0 [ ("x", -1.0) ]));
          ("y>=3", P.of_monomial (M.make 3.0 [ ("y", -1.0) ]));
        ]
      ()
  in
  let t = Ps.analyze problem in
  List.iter
    (fun (x, lo) ->
      let i = List.assoc x t.Ps.box in
      Alcotest.(check (float 1e-12)) (x ^ ".lo") lo i.Iv.lo;
      Alcotest.(check (float 0.0)) (x ^ ".hi") Float.infinity i.Iv.hi)
    [ ("x", 2.0); ("y", 3.0) ];
  match t.Ps.verdict with
  | Ps.Infeasible _ -> Alcotest.fail "expected feasible"
  | Ps.Feasible red ->
    Alcotest.(check (list string)) "nothing dropped" [] (List.map fst red.Ps.dropped);
    Alcotest.(check bool) "reduced is the input" true (red.Ps.reduced == problem)

let test_redundant_elimination () =
  (* x <= 10 is implied by x <= 2 (certified upper bound 0.2). *)
  let problem =
    Gp.Problem.make
      ~objective:(P.add (P.var "x") (P.of_monomial (M.var_pow "x" (-1.0))))
      ~ineqs:
        [
          ("x<=2", P.of_monomial (M.make 0.5 [ ("x", 1.0) ]));
          ("x<=10", P.of_monomial (M.make 0.1 [ ("x", 1.0) ]));
        ]
      ()
  in
  match (Ps.analyze problem).Ps.verdict with
  | Ps.Infeasible _ -> Alcotest.fail "expected feasible"
  | Ps.Feasible red ->
    (match red.Ps.dropped with
    | [ ("x<=10", ub) ] ->
      Alcotest.(check (float 1e-12)) "certified upper bound" 0.2 ub
    | d -> Alcotest.failf "expected x<=10 dropped, got %d" (List.length d));
    Alcotest.(check (list string)) "tight constraint kept" [ "x<=2" ]
      (List.map fst (Gp.Problem.ineqs red.Ps.reduced))

let test_duplicates_not_mutually_dropped () =
  (* Two copies of the same binding constraint imply each other; the
     kept-only re-verification must prevent dropping either. *)
  let bound = P.of_monomial (M.make 0.5 [ ("x", 1.0) ]) in
  let problem =
    Gp.Problem.make
      ~objective:(P.add (P.var "x") (P.of_monomial (M.var_pow "x" (-1.0))))
      ~ineqs:[ ("a", bound); ("b", bound) ]
      ()
  in
  match (Ps.analyze problem).Ps.verdict with
  | Ps.Infeasible _ -> Alcotest.fail "expected feasible"
  | Ps.Feasible red ->
    Alcotest.(check (list string)) "neither copy dropped" []
      (List.map fst red.Ps.dropped);
    Alcotest.(check int) "both constraints survive" 2
      (List.length (Gp.Problem.ineqs red.Ps.reduced))

(* --- the independent proof checker: sound proofs pass, tampered fail --- *)

let proof_of ~steps ~bound =
  { Ps.steps; culprit = "x<=1"; kind = Ps.Ineq_low; bound }

let step bound = { Ps.var = "x"; side = Ps.Lo; bound; via = "x>=2" }

let test_checker_accepts_sound_proofs () =
  (* The exactly-derivable proof, and a deliberately weaker one (x >= 1.5
     instead of the derivable x >= 2, with the culprit bound recomputed
     accordingly): the checker accepts any sound derivation, not just the
     one the propagator happens to emit. *)
  (match Cert.check_prune conflicting (proof_of ~steps:[ step 2.0 ] ~bound:2.0) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "exact proof rejected: %s" msg);
  match Cert.check_prune conflicting (proof_of ~steps:[ step 1.5 ] ~bound:1.5) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "weaker sound proof rejected: %s" msg

let test_checker_rejects_tampered_proofs () =
  let rejected name proof =
    match Cert.check_prune conflicting proof with
    | Ok () -> Alcotest.failf "%s: tampered proof accepted" name
    | Error _ -> ()
  in
  (* A step claiming more than its constraint implies (x >= 3 from
     2 x^-1 <= 1). *)
  rejected "overstated step" (proof_of ~steps:[ step 3.0 ] ~bound:3.0);
  (* A culprit bound that does not match the replayed box. *)
  rejected "inflated culprit bound" (proof_of ~steps:[ step 2.0 ] ~bound:4.0);
  (* Non-finite and non-positive step bounds are rejected outright. *)
  rejected "nan step bound" (proof_of ~steps:[ step Float.nan ] ~bound:2.0);
  rejected "zero step bound" (proof_of ~steps:[ step 0.0 ] ~bound:2.0);
  (* A culprit that is not violated at all. *)
  rejected "unviolated culprit"
    { Ps.steps = []; culprit = "x>=2"; kind = Ps.Ineq_low; bound = 1.0 }

(* --- QCheck soundness: the box contains every feasible point --- *)

let prop_box_contains_feasible_point =
  (* Build random two-variable programs that are feasible at a sampled
     point by construction (each inequality gets 5% slack at the point;
     the optional equality holds there exactly).  Soundness of the
     propagation demands the verdict is not Infeasible and the final box
     contains the point. *)
  let open QCheck2.Gen in
  let coord = oneofl [ 0.5; 1.0; 1.5; 2.0; 3.0 ] in
  let expo = map float_of_int (int_range (-2) 2) in
  let mono = map2 (fun ex ey -> M.make 1.0 [ ("x", ex); ("y", ey) ]) expo expo in
  let gen = tup4 coord coord (list_size (int_range 1 4) mono) (option mono) in
  QCheck2.Test.make ~name:"propagated box contains a known feasible point"
    ~count:200 gen (fun (px, py, ineq_monos, eq_mono) ->
      let at_point m = M.eval (function "x" -> px | _ -> py) m in
      let ineqs =
        List.mapi
          (fun k m ->
            (Printf.sprintf "c%d" k, P.of_monomial (M.scale (1.0 /. (1.05 *. at_point m)) m)))
          ineq_monos
      in
      let eqs =
        match eq_mono with
        | None -> []
        | Some m -> [ ("eq", M.scale (1.0 /. at_point m) m) ]
      in
      let problem =
        Gp.Problem.make ~objective:(P.add (P.var "x") (P.var "y")) ~ineqs ~eqs ()
      in
      let t = Ps.analyze problem in
      match t.Ps.verdict with
      | Ps.Infeasible _ -> false (* a feasible point existed: unsound *)
      | Ps.Feasible _ ->
        List.for_all
          (fun (v, value) ->
            match List.assoc_opt v t.Ps.box with
            | None -> true
            | Some i -> Iv.mem ~slack:1e-9 value i)
          [ ("x", px); ("y", py) ])

(* --- end-to-end over a capacity-starved architecture --- *)

(* 32 PEs with 16 registers each and a 4K-word SRAM: many (choice,
   placement) pairs of resnet-2 are statically over capacity, so the
   pass has real prunes to find (the roomy Eyeriss default prunes
   nothing). *)
let edge = Arch.make ~name:"edge" ~pes:32 ~registers:16 ~sram_words:4096

let nest = Workload.Conv.to_nest (Workload.Zoo.find "resnet-2")

let config presolve = { O.default_config with O.max_choices = 16; presolve }

let test_audit_agrees_with_solver () =
  (* The differential pass of [thistle audit --solve]: every program
     is solved as formulated, and a usable solution must not contradict
     its verdict — no solved pruned program, no coordinate outside the
     box, no eliminated constraint active at the optimum. *)
  let plan = Thistle.Permutations.enumerate ~max_choices:16 nest in
  let pruned = ref 0 and checked = ref 0 in
  List.iter
    (fun choice ->
      List.iter
        (fun placement ->
          let inst = F.build ~placement ~comm:Archspec.Link.Overlapped tech (F.Fixed edge) F.Energy plan choice in
          let t = Ps.analyze inst.F.problem in
          (match t.Ps.verdict with Ps.Infeasible _ -> incr pruned | Ps.Feasible _ -> ());
          let sol = Gp.Solver.solve inst.F.problem in
          if O.usable_solution inst sol then begin
            incr checked;
            Alcotest.(check (list string))
              (inst.F.provenance ^ ": no disagreement")
              [] (O.presolve_disagreements inst t sol)
          end)
        plan.Thistle.Permutations.placements)
    plan.Thistle.Permutations.choices;
  Alcotest.(check bool) (Printf.sprintf "some programs pruned (%d)" !pruned) true (!pruned > 0);
  Alcotest.(check bool) (Printf.sprintf "some solutions checked (%d)" !checked) true
    (!checked > 0)

let test_prune_outcome_identical_to_off () =
  let run presolve =
    match O.dataflow ~config:(config presolve) tech edge F.Energy nest with
    | Ok r -> r
    | Error msg -> Alcotest.failf "optimize failed: %s" msg
  in
  let pruned = run Ps.Prune and off = run Ps.Off in
  Alcotest.(check bool) "presolve actually pruned pairs" true
    (List.length pruned.O.pruned > 0);
  Alcotest.(check int) "off prunes nothing" 0 (List.length off.O.pruned);
  let op = pruned.O.outcome and oo = off.O.outcome in
  Alcotest.(check string) "same arch" oo.I.arch.Arch.arch_name op.I.arch.Arch.arch_name;
  Alcotest.(check string) "same mapping"
    (Format.asprintf "%a" Mapping.pp oo.I.mapping)
    (Format.asprintf "%a" Mapping.pp op.I.mapping);
  Alcotest.(check int64) "bit-identical energy"
    (Int64.bits_of_float oo.I.metrics.Evaluate.energy_pj)
    (Int64.bits_of_float op.I.metrics.Evaluate.energy_pj);
  Alcotest.(check int64) "bit-identical cycles"
    (Int64.bits_of_float oo.I.metrics.Evaluate.cycles)
    (Int64.bits_of_float op.I.metrics.Evaluate.cycles);
  let rel =
    Float.abs (pruned.O.best_continuous -. off.O.best_continuous)
    /. (1.0 +. Float.abs off.O.best_continuous)
  in
  Alcotest.(check bool)
    (Printf.sprintf "continuous objective within tolerance (|Δ| = %.3g)" rel)
    true (rel <= 1e-6)

(* --- the reference propagator --- *)

(* Presolve as it was written over a string-keyed box, before it moved
   onto an index-based lowering, kept as an oracle (with the one
   interval helper only it used).  The library's pass must return
   exactly what this one returns, float bits included. *)
module Oracle = struct
  open Analysis.Presolve

  module Interval = struct
    include Analysis.Interval

    let monomial_without env ~var m =
      List.fold_left
        (fun acc (x, e) -> if String.equal x var then acc else mul acc (pow (env x) e))
        (point (M.coeff m)) (M.exponents m)
  end

  let improve_margin = 1e-9

  let max_rounds = 8

  exception Found_infeasible of step list (* trail, latest first *) * string * culprit_kind * float

  module SS = Set.Make (String)

  (* ------------------------------------------------------------------ *)
  (* Propagation core                                                   *)
  (* ------------------------------------------------------------------ *)

  (* One propagation state: a mutable box plus (optionally) the trail of
     recorded steps, latest first.  The same core runs twice — once with
     recording for the main pass, once silently when re-verifying
     redundancy candidates against the kept constraints only. *)
  type state = {
    box : (string, Interval.t) Hashtbl.t;
    mutable trail : step list;
    record : bool;
    mutable dirty : bool;
  }

  let env st x =
    match Hashtbl.find_opt st.box x with Some i -> i | None -> Interval.full

  let fresh_state ~record problem =
    let box = Hashtbl.create 32 in
    List.iter (fun x -> Hashtbl.replace box x Interval.full) (Gp.Problem.variables problem);
    { box; trail = []; record; dirty = false }

  (* Tighten one endpoint.  [empty_bound] certifies the infeasibility that
     a crossing (new lower bound above the current upper bound, or vice
     versa) implies: it re-evaluates the implying constraint over the
     *current* box and returns its culprit kind and bound when the margin
     holds.  When the crossing is real but not provable beyond the margin,
     the update is skipped — the box stays a sound superset. *)
  let try_hi st ~empty_bound x v via =
    if Float.is_finite v && v > 0.0 then begin
      let cur = env st x in
      if v < cur.Interval.hi *. (1.0 -. improve_margin) then begin
        if v < cur.Interval.lo then begin
          match empty_bound () with
          | Some (kind, bound) -> raise (Found_infeasible (st.trail, via, kind, bound))
          | None -> ()
        end
        else begin
          Hashtbl.replace st.box x { cur with Interval.hi = v };
          if st.record then st.trail <- { var = x; side = Hi; bound = v; via } :: st.trail;
          st.dirty <- true
        end
      end
    end

  let try_lo st ~empty_bound x v via =
    if Float.is_finite v && v > 0.0 then begin
      let cur = env st x in
      if v > cur.Interval.lo *. (1.0 +. improve_margin) && v > cur.Interval.lo then begin
        if v > cur.Interval.hi then begin
          match empty_bound () with
          | Some (kind, bound) -> raise (Found_infeasible (st.trail, via, kind, bound))
          | None -> ()
        end
        else begin
          Hashtbl.replace st.box x { cur with Interval.lo = v };
          if st.record then st.trail <- { var = x; side = Lo; bound = v; via } :: st.trail;
          st.dirty <- true
        end
      end
    end

  (* Lower bound of the inequality over the current box when it certifies
     infeasibility (finite and beyond the margin), for both the
     constraint-level check and the crossing certificate. *)
  let ineq_infeasibility st p =
    let lb = (Interval.posynomial (env st) p).Interval.lo in
    if Float.is_finite lb && lb > 1.0 +. prune_margin then Some (Ineq_low, lb) else None

  let eq_low_infeasibility st m =
    let lb = (Interval.monomial (env st) m).Interval.lo in
    if Float.is_finite lb && lb > 1.0 +. prune_margin then Some (Eq_low, lb) else None

  let eq_high_infeasibility st m =
    let ub = (Interval.monomial (env st) m).Interval.hi in
    (* [ub < 1.] is finite by construction. *)
    if ub < 1.0 -. prune_margin then Some (Eq_high, ub) else None

  let propagate_ineq st (name, p) =
    (match ineq_infeasibility st p with
    | Some (kind, bound) -> raise (Found_infeasible (st.trail, name, kind, bound))
    | None -> ());
    let terms = P.terms p in
    let lbs = List.map (fun m -> (Interval.monomial (env st) m).Interval.lo) terms in
    let total = List.fold_left ( +. ) 0.0 lbs in
    List.iteri
      (fun k m ->
        let slack = 1.0 -. (total -. List.nth lbs k) in
        if slack > 0.0 then
          List.iter
            (fun (x, e) ->
              let rest = (Interval.monomial_without (env st) ~var:x m).Interval.lo in
              if rest > 0.0 && Float.is_finite rest then begin
                (* x ** e <= slack / rest over every feasible point. *)
                let b = (slack /. rest) ** (1.0 /. e) in
                if e > 0.0 then
                  try_hi st ~empty_bound:(fun () -> ineq_infeasibility st p) x b name
                else try_lo st ~empty_bound:(fun () -> ineq_infeasibility st p) x b name
              end)
            (M.exponents m))
      terms

  let propagate_eq st (name, m) =
    (match eq_low_infeasibility st m with
    | Some (kind, bound) -> raise (Found_infeasible (st.trail, name, kind, bound))
    | None -> ());
    (match eq_high_infeasibility st m with
    | Some (kind, bound) -> raise (Found_infeasible (st.trail, name, kind, bound))
    | None -> ());
    List.iter
      (fun (x, e) ->
        let rest = Interval.monomial_without (env st) ~var:x m in
        (* x ** e = 1 / rest, so x ** e lies in the inverse interval. *)
        let p_lo = if rest.Interval.hi = infinity then 0.0 else 1.0 /. rest.Interval.hi in
        let p_hi = if rest.Interval.lo = 0.0 then infinity else 1.0 /. rest.Interval.lo in
        let ie = 1.0 /. e in
        let x_lo, x_hi =
          if e > 0.0 then (p_lo ** ie, p_hi ** ie) else (p_hi ** ie, p_lo ** ie)
        in
        (* A crossing from an equality bound means the equality itself is
           statically violated on the opposite side. *)
        try_lo st ~empty_bound:(fun () -> eq_high_infeasibility st m) x x_lo name;
        try_hi st ~empty_bound:(fun () -> eq_low_infeasibility st m) x x_hi name)
      (M.exponents m)

  let propagate st ~ineqs ~eqs =
    let rounds = ref 0 in
    st.dirty <- true;
    while st.dirty && !rounds < max_rounds do
      st.dirty <- false;
      incr rounds;
      List.iter (propagate_ineq st) ineqs;
      List.iter (propagate_eq st) eqs
    done

  (* ------------------------------------------------------------------ *)
  (* Proof slicing                                                      *)
  (* ------------------------------------------------------------------ *)

  let constraint_vars problem name =
    match List.assoc_opt name (Gp.Problem.ineqs problem) with
    | Some p -> P.variables p
    | None -> (
      match List.assoc_opt name (Gp.Problem.eqs problem) with
      | Some m -> M.variables m
      | None -> [])

  (* Backward slice: walking the trail latest-first, keep a step iff its
     variable supports the culprit (or an already-kept step's implying
     constraint).  Every earlier step a kept step's bound rests on is
     reached later in the walk, so the slice is support-closed; reversing
     restores application order. *)
  let slice problem trail culprit =
    let needed = ref (SS.of_list (constraint_vars problem culprit)) in
    let kept =
      List.filter
        (fun s ->
          if SS.mem s.var !needed then begin
            needed := SS.union !needed (SS.of_list (constraint_vars problem s.via));
            true
          end
          else false)
        trail
    in
    List.rev kept

  (* ------------------------------------------------------------------ *)
  (* Redundancy elimination                                             *)
  (* ------------------------------------------------------------------ *)

  let redundant problem st =
    let ineqs = Gp.Problem.ineqs problem in
    let ub (_, p) = (Interval.posynomial (env st) p).Interval.hi in
    let candidates =
      List.filter (fun c -> ub c <= 1.0 -. drop_margin) ineqs
    in
    if candidates = [] then []
    else begin
      (* A candidate's slackness may rest on bounds it propagated itself.
         Re-propagate from scratch with the kept constraints only; a
         candidate still slack over that (weaker) box is implied by the
         rest of the problem and safe to drop. *)
      let cand_names = SS.of_list (List.map fst candidates) in
      let kept = List.filter (fun (n, _) -> not (SS.mem n cand_names)) ineqs in
      let st' = fresh_state ~record:false problem in
      match propagate st' ~ineqs:kept ~eqs:(Gp.Problem.eqs problem) with
      | () ->
        let ub' (_, p) = (Interval.posynomial (env st') p).Interval.hi in
        List.filter_map
          (fun c -> if ub' c <= 1.0 -. drop_margin then Some (fst c, ub' c) else None)
          candidates
      | exception Found_infeasible _ ->
        (* The kept-only relaxation cannot be infeasible when the full
           problem was not; reachable only through margin corner cases —
           drop nothing, stay conservative. *)
        []
    end

  (* ------------------------------------------------------------------ *)
  (* Reduction construction                                             *)
  (* ------------------------------------------------------------------ *)

  let reduction problem st =
    match redundant problem st with
    | [] -> { reduced = problem; fixed = []; dropped = [] }
    | dropped ->
      let names = SS.of_list (List.map fst dropped) in
      {
        reduced = Gp.Problem.filter_ineqs (fun name -> not (SS.mem name names)) problem;
        fixed = [];
        dropped;
      }

  (* ------------------------------------------------------------------ *)
  (* Entry point                                                        *)
  (* ------------------------------------------------------------------ *)

  let box_list problem st =
    List.map (fun x -> (x, env st x)) (Gp.Problem.variables problem)

  let analyze problem =
    let st = fresh_state ~record:true problem in
    match propagate st ~ineqs:(Gp.Problem.ineqs problem) ~eqs:(Gp.Problem.eqs problem) with
    | () -> { box = box_list problem st; verdict = Feasible (reduction problem st) }
    | exception Found_infeasible (trail, culprit, kind, bound) ->
      let steps = slice problem trail culprit in
      { box = box_list problem st; verdict = Infeasible { steps; culprit; kind; bound } }
end

(* Everything a presolve result carries, as text with every float in
   hex: the box, then the dropped bounds and the reduced program (or
   that it is physically the input), or the proof. *)
let render problem outcome =
  let b = Buffer.create 1024 in
  let monomial m =
    Printf.bprintf b " %h" (M.coeff m);
    List.iter (fun (x, e) -> Printf.bprintf b "*%s^%h" x e) (M.exponents m)
  in
  let program p =
    Buffer.add_string b "  minimize";
    List.iter monomial (P.terms (Gp.Problem.objective p));
    List.iter
      (fun (c, q) ->
        Printf.bprintf b "\n  %s <=" c;
        List.iter monomial (P.terms q))
      (Gp.Problem.ineqs p);
    List.iter
      (fun (c, m) ->
        Printf.bprintf b "\n  %s =" c;
        monomial m)
      (Gp.Problem.eqs p);
    Buffer.add_char b '\n'
  in
  (match outcome with
  | Error e -> Printf.bprintf b "raised %s\n" (Printexc.to_string e)
  | Ok (t : Ps.t) -> (
    List.iter (fun (x, i) -> Printf.bprintf b "box %s %h %h\n" x i.Iv.lo i.Iv.hi) t.Ps.box;
    match t.Ps.verdict with
    | Ps.Feasible r ->
      List.iter (fun (c, v) -> Printf.bprintf b "dropped %s %h\n" c v) r.Ps.dropped;
      if r.Ps.reduced == problem then Buffer.add_string b "reduced: the input\n"
      else begin
        Buffer.add_string b "reduced:\n";
        program r.Ps.reduced
      end
    | Ps.Infeasible proof ->
      List.iter
        (fun (s : Ps.step) ->
          Printf.bprintf b "step %s %s %h via %s\n" s.Ps.var
            (match s.Ps.side with Ps.Lo -> "lo" | Ps.Hi -> "hi")
            s.Ps.bound s.Ps.via)
        proof.Ps.steps;
      Printf.bprintf b "culprit %s %s %h\n" proof.Ps.culprit
        (match proof.Ps.kind with
        | Ps.Ineq_low -> "ineq-low"
        | Ps.Eq_low -> "eq-low"
        | Ps.Eq_high -> "eq-high")
        proof.Ps.bound));
  Buffer.contents b

(* The oracle's and the library's results on [problem], rendered. *)
let both problem =
  let run analyze = render problem (try Ok (analyze problem) with e -> Error e) in
  (run Oracle.analyze, run Ps.analyze)

let check_agrees name problem =
  let expected, got = both problem in
  if not (String.equal expected got) then
    Alcotest.failf "%s: presolve differs from the reference@.%a@.reference:@.%sgot:@.%s" name
      Gp.Problem.pp problem expected got

(* Every (choice, placement) program of each distinct zoo layer shape at
   [max_choices] 2, in the six settings of the presolve golden. *)
let test_oracle_zoo () =
  let tech =
    Archspec.Technology.scale_to_node Archspec.Technology.table3
      ~node_nm:Archspec.Technology.reference_node_nm
  in
  let eyeriss = Arch.make ~name:"cli" ~pes:168 ~registers:512 ~sram_words:65536 in
  let module L = Archspec.Link in
  let settings =
    [
      (F.Fixed eyeriss, F.Energy, L.Comm_aware);
      (F.Fixed eyeriss, F.Delay, L.Comm_aware);
      (F.Fixed eyeriss, F.Delay, L.Overlapped);
      (F.Fixed eyeriss, F.Edp, L.Comm_aware);
      (F.Fixed edge, F.Delay, L.Comm_aware);
      (F.Codesign { area_budget = Arch.eyeriss_area tech }, F.Energy, L.Comm_aware);
    ]
  in
  let shapes = Hashtbl.create 64 in
  let layers =
    List.filter
      (fun (c : Workload.Conv.t) ->
        let shape = { c with Workload.Conv.layer_name = "" } in
        (not (Hashtbl.mem shapes shape)) && (Hashtbl.add shapes shape (); true))
      Workload.Zoo.all_layers
  in
  let programs = ref 0 and pruned = ref 0 in
  List.iter
    (fun layer ->
      let nest = Workload.Conv.to_nest layer in
      let plan = Thistle.Permutations.enumerate ~max_choices:2 nest in
      List.iter
        (fun (mode, objective, comm) ->
          List.iter
            (fun choice ->
              List.iter
                (fun placement ->
                  let inst = F.build ~placement ~comm tech mode objective plan choice in
                  check_agrees inst.F.provenance inst.F.problem;
                  incr programs;
                  match (Ps.analyze inst.F.problem).Ps.verdict with
                  | Ps.Infeasible _ -> incr pruned
                  | Ps.Feasible _ -> ())
                plan.Thistle.Permutations.placements)
            plan.Thistle.Permutations.choices)
        settings)
    layers;
  Alcotest.(check bool)
    (Printf.sprintf "programs with proofs among the %d compared (%d)" !programs !pruned)
    true (!pruned > 0)

(* Random programs that reach every path of the pass.  Each variable
   draws a point and an exponent sign (positive, negative or mixed,
   applied to its every occurrence outside simple bounds), so one-sided
   propagation is common; constraints are drawn from templates: random
   posynomials scaled to a chosen value at the point (infeasible, tight,
   slack or far slack), simple lower and upper bounds at or around the
   point, monomial equalities that hold at the point or miss it by 4x,
   constants, and a pair of bounds on one variable that contradict each
   other by less than the pruning margin, a crossing the pass cannot
   prove. *)
let gen_program =
  let open QCheck2.Gen in
  let* nv = int_range 1 4 in
  let vars = List.init nv (Printf.sprintf "x%d") in
  let* point = flatten_l (List.map (fun _ -> oneofl [ 0.5; 1.0; 2.0; 3.0 ]) vars) in
  let* signs = flatten_l (List.map (fun _ -> oneofl [ `Pos; `Neg; `Mixed ]) vars) in
  let env x = List.assoc x (List.combine vars point) in
  let expo = function
    | `Pos -> oneofl [ 0.5; 1.0; 2.0 ]
    | `Neg -> oneofl [ -0.5; -1.0; -2.0 ]
    | `Mixed -> oneofl [ -2.0; -1.0; 1.0; 2.0 ]
  in
  let mono =
    let* factors =
      flatten_l
        (List.map2
           (fun x sign ->
             let* present = bool in
             if present then map (fun e -> Some (x, e)) (expo sign) else pure None)
           vars signs)
    in
    pure (M.make 1.0 (List.filter_map Fun.id factors))
  in
  let var = map (List.nth vars) (int_range 0 (nv - 1)) in
  let constraint_ =
    frequency
      [
        ( 4,
          let* ms = list_size (int_range 1 3) mono in
          let* value = oneofl [ 3.0; 1.05; 1.0; 0.9; 0.3; 0.01 ] in
          let p = P.of_monomials ms in
          pure [ `Le (P.mul_monomial (M.const (value /. P.eval env p)) p) ] );
        ( 2,
          let* x = var in
          let* f = oneofl [ 0.5; 1.0; 1.5 ] in
          pure [ `Le (P.of_monomial (M.make (env x *. f) [ (x, -1.0) ])) ] );
        ( 2,
          let* x = var in
          let* f = oneofl [ 0.5; 1.0; 1.5 ] in
          pure [ `Le (P.of_monomial (M.make (1.0 /. (env x *. f)) [ (x, 1.0) ])) ] );
        ( 1,
          let* m = mono in
          let* f = oneofl [ 0.25; 1.0; 4.0 ] in
          pure [ `Eq (M.scale (f /. M.eval env m) m) ] );
        (1, map (fun c -> [ `Le (P.const c) ]) (oneofl [ 0.5; 1.0; 2.0 ]));
        ( 1,
          let* x = var in
          pure
            [
              `Le (P.of_monomial (M.make (env x) [ (x, -1.0) ]));
              `Le (P.of_monomial (M.make ((1.0 +. 5e-7) /. env x) [ (x, 1.0) ]));
            ] );
      ]
  in
  let* objective = list_size (int_range 1 3) mono in
  let* cs = map List.concat (list_size (int_range 1 6) constraint_) in
  let ineqs = List.filter_map (function `Le p -> Some p | `Eq _ -> None) cs in
  let eqs = List.filter_map (function `Eq m -> Some m | `Le _ -> None) cs in
  pure
    (Gp.Problem.make ~objective:(P.of_monomials objective)
       ~ineqs:(List.mapi (fun k p -> (Printf.sprintf "c%d" k, p)) ineqs)
       ~eqs:(List.mapi (fun k m -> (Printf.sprintf "e%d" k, m)) eqs)
       ())

let print_program = Format.asprintf "%a" Gp.Problem.pp

let prop_oracle_agrees =
  QCheck2.Test.make ~name:"presolve equals the reference on random programs" ~count:2000
    ~print:print_program gen_program (fun problem ->
      let expected, got = both problem in
      String.equal expected got
      || QCheck2.Test.fail_reportf "reference:@.%sgot:@.%s" expected got)

(* The random programs above reach every path: each infeasibility kind,
   interval-certified drops, and a feasible program handed on whole.
   Counted on the reference over a fixed sample. *)
let test_random_programs_reach_every_path () =
  let rand = Random.State.make [| 21 |] in
  let seen = Hashtbl.create 8 in
  let hit path = Hashtbl.replace seen path () in
  List.iter
    (fun problem ->
      match (Oracle.analyze problem).Ps.verdict with
      | Ps.Infeasible { Ps.kind = Ps.Ineq_low; _ } -> hit "ineq-low"
      | Ps.Infeasible { Ps.kind = Ps.Eq_low; _ } -> hit "eq-low"
      | Ps.Infeasible { Ps.kind = Ps.Eq_high; _ } -> hit "eq-high"
      | Ps.Feasible { Ps.dropped = []; _ } -> hit "whole"
      | Ps.Feasible _ -> hit "certified drop")
    (QCheck2.Gen.generate ~rand ~n:2000 gen_program);
  List.iter
    (fun path -> Alcotest.(check bool) path true (Hashtbl.mem seen path))
    [ "ineq-low"; "eq-low"; "eq-high"; "certified drop"; "whole" ]

let () =
  Alcotest.run "presolve"
    [
      ( "interval",
        [
          Alcotest.test_case "products" `Quick test_interval_products;
          Alcotest.test_case "powers" `Quick test_interval_powers;
          Alcotest.test_case "guards and membership" `Quick test_interval_guards_and_mem;
          Alcotest.test_case "monomials" `Quick test_interval_monomials;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "bound conflict" `Quick test_infeasible_bound_conflict;
          Alcotest.test_case "constant term" `Quick test_infeasible_constant_term;
          Alcotest.test_case "equality conflict" `Quick test_infeasible_equality;
          Alcotest.test_case "monotone variables left free" `Quick test_monotone_left_free;
          Alcotest.test_case "redundant elimination" `Quick test_redundant_elimination;
          Alcotest.test_case "duplicates kept" `Quick test_duplicates_not_mutually_dropped;
        ] );
      ( "checker",
        [
          Alcotest.test_case "accepts sound proofs" `Quick test_checker_accepts_sound_proofs;
          Alcotest.test_case "rejects tampered proofs" `Quick
            test_checker_rejects_tampered_proofs;
        ] );
      ( "soundness",
        List.map QCheck_alcotest.to_alcotest [ prop_box_contains_feasible_point ] );
      ( "oracle",
        [
          Alcotest.test_case "zoo programs" `Slow test_oracle_zoo;
          Alcotest.test_case "random programs reach every path" `Quick
            test_random_programs_reach_every_path;
          QCheck_alcotest.to_alcotest prop_oracle_agrees;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "audit agrees with solver" `Slow test_audit_agrees_with_solver;
          Alcotest.test_case "prune outcome identical to off" `Slow
            test_prune_outcome_identical_to_off;
        ] );
    ]
