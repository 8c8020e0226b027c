(* The default solver kernel against the reference list kernel.

   Evaluation is held to an exact contract: Gp.Batch.eval_into — the
   compiled evaluation the default kernel runs — returns the same
   values, gradients and Hessians as Gp.Smooth.log_sum_exp on the list
   kernel's lowering, down to the last bit, for the phase-I slack images
   too.  Solving is held to solver tolerance: the default solve and the
   `List solve differ only in the KKT factorization, so they reach the
   same status, objective and point. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module M = Symexpr.Monomial
module P = Symexpr.Posynomial

let bits = Int64.bits_of_float

let same_float a b = Int64.equal (bits a) (bits b)

let check_bits name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %h (%Lx), got %h (%Lx)" name expected (bits expected)
       actual (bits actual))
    true (same_float expected actual)

(* --- lowerings --- *)

(* The list kernel's lowering of one posynomial: dense exponent rows
   over the problem's sorted variables, offsets [log c]. *)
let smooth_of problem poly =
  let vars = Gp.Problem.variables problem in
  let n = List.length vars in
  let index = Hashtbl.create 16 in
  List.iteri (fun i x -> Hashtbl.replace index x i) vars;
  let term m =
    let a = Vec.create n in
    List.iter (fun (x, e) -> a.(Hashtbl.find index x) <- e) (M.exponents m);
    (a, log (M.coeff m))
  in
  Gp.Smooth.log_sum_exp n (List.map term (P.terms poly))

(* The list kernel's phase-I image G(y, s) = f(y) - s. *)
let minus_slack (f : Gp.Smooth.t) =
  let n = f.Gp.Smooth.dim in
  let ext = Gp.Smooth.extend f 1 in
  {
    Gp.Smooth.dim = n + 1;
    value = (fun y -> ext.Gp.Smooth.value y -. y.(n));
    eval =
      (fun y ->
        let v, g, h = ext.Gp.Smooth.eval y in
        g.(n) <- g.(n) -. 1.0;
        (v -. y.(n), g, h));
  }

(* The compiled function of slot [slot] (0 = objective, j+1 =
   inequality j) of a compiled problem, phase II or its phase-I image. *)
let compiled_fn ?(phase1 = false) (plan : Gp.Batch.plan) slot =
  if slot = 0 then plan.Gp.Batch.pl_objective
  else if phase1 then plan.Gp.Batch.pl_ineqs1.(slot - 1)
  else plan.Gp.Batch.pl_ineqs.(slot - 1)

(* Evaluate [f] through Gp.Batch.value and Gp.Batch.eval_into at [y],
   and compare value, full gradient and full Hessian bitwise against
   [smooth].  eval_into only writes support entries, so the buffers
   start zeroed — off-support entries of the dense path are always
   [+0.0] (sums from a [+0.0] start can never produce [-0.0]). *)
let disagreements (smooth : Gp.Smooth.t) (f : Gp.Batch.fn) y =
  let n = smooth.Gp.Smooth.dim in
  let es = Array.make (max 1 f.Gp.Batch.f_nterms) 0.0 in
  let bad = ref [] in
  let check name expected actual =
    if not (same_float expected actual) then bad := (name, expected, actual) :: !bad
  in
  check "value" (smooth.Gp.Smooth.value y) (Gp.Batch.value f ~es y);
  let v_ref, g_ref, h_ref = smooth.Gp.Smooth.eval y in
  let grad = Array.make n 0.0 in
  let hess = Array.make (n * n) 0.0 in
  let v = Gp.Batch.eval_into f ~es ~grad ~hess ~hn:n y in
  check "eval value" v_ref v;
  for i = 0 to n - 1 do
    check (Printf.sprintf "grad.(%d)" i) g_ref.(i) grad.(i);
    for j = 0 to n - 1 do
      check (Printf.sprintf "hess.(%d,%d)" i j) (Mat.get h_ref i j) hess.((i * n) + j)
    done
  done;
  List.rev !bad

let agree_on name smooth f y =
  List.iter
    (fun (what, expected, actual) -> check_bits (name ^ " " ^ what) expected actual)
    (disagreements smooth f y)

let x0 = "x0"
let x1 = "x1"
let x2 = "x2"

(* --- unit cases --- *)

let test_single_term () =
  let problem =
    Gp.Problem.make
      ~objective:(P.of_monomial (M.make 3.0 [ (x0, 1.0); (x1, -2.0) ]))
      ~ineqs:[ ("g", P.of_monomial (M.make 0.5 [ (x2, 1.0) ])) ]
      ()
  in
  let plan = Gp.Batch.compile problem in
  agree_on "single"
    (smooth_of problem (Gp.Problem.objective problem))
    (compiled_fn plan 0)
    (Vec.of_list [ 0.3; -1.2; 7.0 ])

let test_constant_term () =
  (* A term with an all-zero row (a constant monomial). *)
  let objective = P.of_monomials [ M.const 2.0; M.make 1.0 [ (x0, 1.0); (x1, 1.0) ] ] in
  let problem = Gp.Problem.make ~objective () in
  let plan = Gp.Batch.compile problem in
  agree_on "const-term" (smooth_of problem objective) (compiled_fn plan 0)
    (Vec.of_list [ -0.4; 0.9 ])

let test_affine_matches_linear () =
  (* The phase-I objective [s] and bound [-s - 20] are pure-affine
     compiled functions; the list kernel builds them with
     Smooth.linear. *)
  let problem =
    Gp.Problem.make
      ~objective:(P.var x0)
      ~ineqs:[ ("g", P.of_monomial (M.make 0.5 [ (x1, -1.0) ])) ]
      ()
  in
  let plan = Gp.Batch.compile problem in
  let n1 = plan.Gp.Batch.pl_n + 1 in
  (* Off-support coefficients are +0.0 here; the list kernel's
     [Vec.scale (-1.0) s_dir] carries -0.0 there instead, which adds
     nothing to any sum. *)
  let dir c = Vec.init n1 (fun i -> if i = n1 - 1 then c else 0.0) in
  let y = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  agree_on "objective s" (Gp.Smooth.linear n1 (dir 1.0) 0.0) plan.Gp.Batch.pl_objective1 y;
  agree_on "lower bound" (Gp.Smooth.linear n1 (dir (-1.0)) (-20.0)) plan.Gp.Batch.pl_lower1 y

let test_stale_buffers () =
  (* eval_into must overwrite (not accumulate into) its support block
     even when the buffers carry stale garbage from another function. *)
  let objective = P.of_monomial (M.make (exp 0.1) [ (x0, 2.0); (x2, 1.0) ]) in
  let problem =
    Gp.Problem.make ~objective
      ~ineqs:[ ("g", P.of_monomial (M.make 0.5 [ (x1, 1.0) ])) ]
      ()
  in
  let f = compiled_fn (Gp.Batch.compile problem) 0 in
  let y = Vec.of_list [ 0.2; 0.4; -0.6 ] in
  let _, g_ref, h_ref = (smooth_of problem objective).Gp.Smooth.eval y in
  let n = 3 in
  let grad = Array.make n 5.0 in
  let hess = Array.make (n * n) 7.0 in
  let es = Array.make 1 0.0 in
  ignore (Gp.Batch.eval_into f ~es ~grad ~hess ~hn:n y);
  check_bits "g0" g_ref.(0) grad.(0);
  check_bits "g2" g_ref.(2) grad.(2);
  check_bits "g1 untouched" 5.0 grad.(1);
  check_bits "h00" (Mat.get h_ref 0 0) hess.(0);
  check_bits "h02" (Mat.get h_ref 0 2) hess.(2);
  check_bits "h11 untouched" 7.0 hess.(4);
  check_bits "h01 untouched" 7.0 hess.(1)

let test_slack_extension () =
  (* The phase-I image of an inequality, G(y, s) = f(y) - s over one
     more coordinate. *)
  let g =
    P.of_monomials
      [
        M.make (exp 0.2) [ (x0, 1.0); (x1, 0.5) ];
        M.make (exp (-0.3)) [ (x0, -1.0); (x1, 2.0) ];
      ]
  in
  let problem = Gp.Problem.make ~objective:(P.var x0) ~ineqs:[ ("g", g) ] () in
  let smooth = minus_slack (smooth_of problem g) in
  let f = compiled_fn ~phase1:true (Gp.Batch.compile problem) 1 in
  agree_on "slack" smooth f (Vec.of_list [ 0.7; -0.1; 1.3 ]);
  agree_on "slack at s=0" smooth f (Vec.of_list [ 0.7; -0.1; 0.0 ])

(* --- evaluation properties --- *)

(* A random posynomial over up to seven variables, mostly structural
   zeros like real formulations (each monomial mentions a few of the
   problem variables), plus a point to evaluate at. *)
let gen_posynomial =
  let open QCheck2.Gen in
  let* nvars = int_range 2 7 in
  let* nterms = int_range 1 6 in
  let entry =
    let* zero = frequency [ (6, return true); (4, return false) ] in
    if zero then return 0.0 else float_range (-3.0) 3.0
  in
  let term =
    let* exps = list_size (return nvars) entry in
    let* b = float_range (-4.0) 4.0 in
    return
      (M.make (exp b)
         (List.filter_map
            (fun (i, e) -> if e = 0.0 then None else Some (Printf.sprintf "x%d" i, e))
            (List.mapi (fun i e -> (i, e)) exps)))
  in
  let* terms = list_size (return nterms) term in
  let* y = array_size (return nvars) (float_range (-3.0) 3.0) in
  return (P.of_monomials terms, y)

(* [poly] as the objective, and as the only inequality under a constant
   objective for its phase-I image; either way the problem's variables
   are exactly [poly]'s. *)
let prop_bit_identical =
  QCheck2.Test.make ~name:"compiled kernel is bit-identical to Smooth.log_sum_exp"
    ~count:500 gen_posynomial (fun (poly, y) ->
      let problem = Gp.Problem.make ~objective:poly () in
      let n = List.length (Gp.Problem.variables problem) in
      disagreements (smooth_of problem poly)
        (compiled_fn (Gp.Batch.compile problem) 0)
        (Vec.slice y 0 n)
      = [])

let prop_slack_bit_identical =
  QCheck2.Test.make ~name:"compiled slack extension is bit-identical" ~count:200
    gen_posynomial (fun (poly, y) ->
      let problem =
        Gp.Problem.make ~objective:(P.const 1.0) ~ineqs:[ ("g", poly) ] ()
      in
      let n = List.length (Gp.Problem.variables problem) in
      disagreements
        (minus_slack (smooth_of problem poly))
        (compiled_fn ~phase1:true (Gp.Batch.compile problem) 1)
        (Vec.concat (Vec.slice y 0 n) [| 0.5 |])
      = [])

(* Random families of whole programs: one random structure (exponent
   rows for the objective, inequalities and equalities, plus
   per-variable box constraints that keep the programs bounded), then
   several members that differ only in their coefficients. *)
let gen_family =
  let open QCheck2.Gen in
  let* n = int_range 2 4 in
  let vars = Array.init n (fun i -> Printf.sprintf "x%d" i) in
  let exp_choice = oneofl [ -2.0; -1.0; -0.5; 0.5; 1.0; 2.0 ] in
  let gen_term =
    let* nv = int_range 1 (min 3 n) in
    let* start = int_range 0 (n - 1) in
    let* exps = list_size (return nv) exp_choice in
    return (List.mapi (fun k e -> (vars.((start + k) mod n), e)) exps)
  in
  let* obj_nt = int_range 1 4 in
  let* obj_s = list_size (return obj_nt) gen_term in
  let* nineq = int_range 0 2 in
  let* ineq_s =
    list_size (return nineq)
      (int_range 1 3 >>= fun nt -> list_size (return nt) gen_term)
  in
  let* neq = int_range 0 1 in
  let* eq_s = list_size (return neq) gen_term in
  (* Occasionally a constant equality: consistent (c = 1) or not
     (c = 1.5) — the solver checks these per problem. *)
  let* const_eq =
    frequency [ (4, return None); (1, return (Some 1.0)); (1, return (Some 1.5)) ]
  in
  let* nmembers = int_range 2 4 in
  let coeff = float_range 0.2 5.0 in
  let eq_coeff = float_range 0.5 2.0 in
  let member =
    let* obj_c = list_size (return obj_nt) coeff in
    let* ineq_c =
      flatten_l
        (List.map (fun ts -> list_size (return (List.length ts)) coeff) ineq_s)
    in
    let* eq_c = list_size (return (List.length eq_s)) eq_coeff in
    return (obj_c, ineq_c, eq_c)
  in
  let* members = list_size (return nmembers) member in
  let* y = array_size (return n) (float_range (-1.5) 1.5) in
  return (vars, obj_s, ineq_s, eq_s, const_eq, members, y)

let build_problem vars obj_s ineq_s eq_s const_eq (obj_c, ineq_c, eq_c) =
  let poly structure cs =
    P.of_monomials (List.map2 (fun t c -> M.make c t) structure cs)
  in
  let n = Array.length vars in
  let box =
    List.concat
      (List.init n (fun i ->
           [
             (Printf.sprintf "ub%d" i, P.of_monomial (M.make 0.1 [ (vars.(i), 1.0) ]));
             (Printf.sprintf "lb%d" i, P.of_monomial (M.make 0.1 [ (vars.(i), -1.0) ]));
           ]))
  in
  let ineqs =
    List.mapi
      (fun j (ts, cs) -> (Printf.sprintf "g%d" j, poly ts cs))
      (List.combine ineq_s ineq_c)
  in
  let eqs =
    List.mapi (fun j m -> (Printf.sprintf "e%d" j, m)) (List.map2 M.make eq_c eq_s)
  in
  let eqs =
    match const_eq with None -> eqs | Some c -> ("ec", M.const c) :: eqs
  in
  Gp.Problem.make ~objective:(poly obj_s obj_c) ~ineqs:(ineqs @ box) ~eqs ()

let family_problems (vars, obj_s, ineq_s, eq_s, const_eq, members, _y) =
  Array.of_list (List.map (build_problem vars obj_s ineq_s eq_s const_eq) members)

(* Every function of a whole program — objective and inequalities,
   equality rows and box constraints alongside — evaluates exactly like
   the list kernel's lowering of it, for every member of a family. *)
let prop_program_eval_bit_identical =
  QCheck2.Test.make ~name:"program eval is bit-identical to per-problem Smooth eval"
    ~count:200 gen_family (fun input ->
      let _, _, _, _, _, _, y = input in
      Array.for_all
        (fun problem ->
          let plan = Gp.Batch.compile problem in
          List.for_all
            (fun (slot, poly) ->
              disagreements (smooth_of problem poly) (compiled_fn plan slot) y = [])
            (List.mapi
               (fun slot poly -> (slot, poly))
               (Gp.Problem.objective problem :: List.map snd (Gp.Problem.ineqs problem))))
        (family_problems input))

(* --- the solve property --- *)

let approx a b = Float.abs (a -. b) <= 1e-4 *. (1.0 +. Float.abs b)

(* Same status; where a point was found, the objective and every value
   agree to solver tolerance. *)
let agree (a : Gp.Solver.solution) (b : Gp.Solver.solution) =
  a.Gp.Solver.status = b.Gp.Solver.status
  &&
  match a.Gp.Solver.status with
  | Gp.Solver.Infeasible | Gp.Solver.Deadline_exceeded -> true
  | Gp.Solver.Optimal | Gp.Solver.Iteration_limit ->
    approx a.Gp.Solver.objective b.Gp.Solver.objective
    && List.length a.Gp.Solver.values = List.length b.Gp.Solver.values
    && List.for_all2
         (fun (xa, va) (xb, vb) -> String.equal xa xb && approx va vb)
         a.Gp.Solver.values b.Gp.Solver.values

(* Values are comparable only at a unique optimum: a random objective
   can be flat along a face of the feasible set (only [x1 * x2] priced,
   say), where two solvers legitimately stop at different points of
   equal objective.  Pricing [x + 1/x] for every variable makes the
   log-space objective strictly convex, so the optimum is unique. *)
let strictly_convex problem =
  let price x = P.of_monomials [ M.make 0.1 [ (x, 1.0) ]; M.make 0.1 [ (x, -1.0) ] ] in
  Gp.Problem.make
    ~objective:
      (List.fold_left
         (fun acc x -> P.add acc (price x))
         (Gp.Problem.objective problem) (Gp.Problem.variables problem))
    ~ineqs:(Gp.Problem.ineqs problem) ~eqs:(Gp.Problem.eqs problem) ()

let prop_default_matches_list =
  QCheck2.Test.make ~name:"default solve matches the List reference solve" ~count:60
    gen_family (fun input ->
      let problems = Array.map strictly_convex (family_problems input) in
      let ok = ref true in
      Array.iteri
        (fun m problem ->
          let d = Gp.Solver.solve problem in
          let l = Gp.Solver.solve ~kernel:`List problem in
          if not (agree d l) then ok := false;
          (* Warm-started from the previous member's solution, as the
             sweep seeds a placement from its choice's pinned solve. *)
          if m > 0 then begin
            let prev = Gp.Solver.solve problems.(m - 1) in
            if prev.Gp.Solver.status = Gp.Solver.Optimal then begin
              let warm = prev.Gp.Solver.values in
              let wd = Gp.Solver.solve ~warm_start:warm problem in
              let wl = Gp.Solver.solve ~kernel:`List ~warm_start:warm problem in
              if not (agree wd wl && agree wd d) then ok := false
            end
          end)
        problems;
      !ok)

let () =
  Alcotest.run "compiled"
    [
      ( "units",
        [
          Alcotest.test_case "single term" `Quick test_single_term;
          Alcotest.test_case "constant term" `Quick test_constant_term;
          Alcotest.test_case "affine" `Quick test_affine_matches_linear;
          Alcotest.test_case "stale buffers" `Quick test_stale_buffers;
          Alcotest.test_case "slack extension" `Quick test_slack_extension;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bit_identical;
            prop_slack_bit_identical;
            prop_program_eval_bit_identical;
            prop_default_matches_list;
          ] );
    ]
