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

let compile problem = Gp.Batch.compile (Gp.Batch.lower problem) problem

(* The compiled function of slot [slot] (0 = objective, j+1 =
   inequality j) of a compiled problem, phase II or its phase-I image. *)
let compiled_fn ?(phase1 = false) (plan : Gp.Batch.plan) slot =
  if slot = 0 then plan.Gp.Batch.pl_objective
  else if phase1 then
    Gp.Batch.minus_slack plan.Gp.Batch.pl_n plan.Gp.Batch.pl_ineqs.(slot - 1)
  else plan.Gp.Batch.pl_ineqs.(slot - 1)

(* Evaluate [f] through Gp.Batch.value and Gp.Batch.eval_into at [y],
   and compare value, full gradient and full Hessian bitwise against
   [smooth].  eval_into only writes support entries, so the buffers
   start zeroed — off-support entries of the dense path are always
   [+0.0] (sums from a [+0.0] start can never produce [-0.0]). *)
let disagreements ?within ?(same = same_float) (smooth : Gp.Smooth.t) (f : Gp.Batch.fn) y =
  let n = smooth.Gp.Smooth.dim in
  let indices = match within with Some a -> a | None -> Array.init n Fun.id in
  let es = Array.make (max 1 f.Gp.Batch.f_nterms) 0.0 in
  let bad = ref [] in
  let check name expected actual =
    if not (same expected actual) then bad := (name, expected, actual) :: !bad
  in
  check "value" (smooth.Gp.Smooth.value y) (Gp.Batch.value f ~es y);
  let v_ref, g_ref, h_ref = smooth.Gp.Smooth.eval y in
  let grad = Array.make n 0.0 in
  let hess = Array.make (n * n) 0.0 in
  let v = Gp.Batch.eval_into f ~es ~grad ~hess ~hn:n y in
  check "eval value" v_ref v;
  Array.iter
    (fun i ->
      check (Printf.sprintf "grad.(%d)" i) g_ref.(i) grad.(i);
      Array.iter
        (fun j ->
          check (Printf.sprintf "hess.(%d,%d)" i j) (Mat.get h_ref i j) hess.((i * n) + j))
        indices)
    indices;
  List.rev !bad

(* Where a term's exponent is non-finite, every softmax weight of the
   dense path is NaN and its [p *. 0.0] products fill the whole gradient
   and Hessian with NaN; the compiled path writes only its support.  On
   the support the two agree bit for bit, except that a NaN's sign is
   not pinned: which operand's NaN an IEEE operation propagates is up to
   the machine code, and no solver decision reads it (every comparison
   with a NaN is false whatever its sign).  A phase-I image's slack
   row and column are left out too: the dense path never touches them
   (+0.0), while the compiled path's [-. g g^T] over its whole support
   adds [-.(g_i *. 0.0)] there, which is NaN. *)
let support_disagreements ?slack smooth (f : Gp.Batch.fn) y =
  let same a b = same_float a b || (Float.is_nan a && Float.is_nan b) in
  let within =
    match slack with
    | None -> f.Gp.Batch.f_support
    | Some s -> Array.of_list (List.filter (( <> ) s) (Array.to_list f.Gp.Batch.f_support))
  in
  disagreements ~within ~same smooth f y

let agree_on name smooth f y =
  List.iter
    (fun (what, expected, actual) -> check_bits (name ^ " " ^ what) expected actual)
    (disagreements smooth f y)

let agree_on_support ?slack name smooth f y =
  List.iter
    (fun (what, expected, actual) -> check_bits (name ^ " " ^ what) expected actual)
    (support_disagreements ?slack smooth f y)

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
  let plan = compile problem in
  agree_on "single"
    (smooth_of problem (Gp.Problem.objective problem))
    (compiled_fn plan 0)
    (Vec.of_list [ 0.3; -1.2; 7.0 ])

let test_constant_term () =
  (* A term with an all-zero row (a constant monomial). *)
  let objective = P.of_monomials [ M.const 2.0; M.make 1.0 [ (x0, 1.0); (x1, 1.0) ] ] in
  let problem = Gp.Problem.make ~objective () in
  let plan = compile problem in
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
  let n = (compile problem).Gp.Batch.pl_n in
  let n1 = n + 1 in
  (* Off-support coefficients are +0.0 here; the list kernel's
     [Vec.scale (-1.0) s_dir] carries -0.0 there instead, which adds
     nothing to any sum. *)
  let dir c = Vec.init n1 (fun i -> if i = n1 - 1 then c else 0.0) in
  let y = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  agree_on "objective s" (Gp.Smooth.linear n1 (dir 1.0) 0.0) (Gp.Batch.affine [ (n, 1.0) ] 0.0) y;
  agree_on "lower bound"
    (Gp.Smooth.linear n1 (dir (-1.0)) (-20.0))
    (Gp.Batch.affine [ (n, -1.0) ] (-20.0))
    y

let test_stale_buffers () =
  (* eval_into must overwrite (not accumulate into) its support block
     even when the buffers carry stale garbage from another function. *)
  let objective = P.of_monomial (M.make (exp 0.1) [ (x0, 2.0); (x2, 1.0) ]) in
  let problem =
    Gp.Problem.make ~objective
      ~ineqs:[ ("g", P.of_monomial (M.make 0.5 [ (x1, 1.0) ])) ]
      ()
  in
  let f = compiled_fn (compile problem) 0 in
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

let test_single_term_nonfinite () =
  (* One term, exponent 2 x0 - 2 x1 + log 3: finite coordinates that
     overflow it to +inf, to -inf, and to inf - inf = NaN, where the
     affine shortcut must hand over to the general path; then the
     phase-I image of a single-term inequality, at a zero exponent and
     at non-finite ones. *)
  let objective = P.of_monomial (M.make 3.0 [ (x0, 2.0); (x1, -2.0) ]) in
  let ineq = P.of_monomial (M.make 0.5 [ (x0, -2.0); (x1, 2.0) ]) in
  let problem = Gp.Problem.make ~objective ~ineqs:[ ("g", ineq) ] () in
  let plan = compile problem in
  let f = compiled_fn plan 0 in
  Alcotest.(check bool) "shortcut applies" true f.Gp.Batch.f_single;
  let smooth = smooth_of problem objective in
  let big = Float.max_float in
  agree_on_support "+inf" smooth f [| big; 0.0 |];
  agree_on_support "-inf" smooth f [| -.big; 0.0 |];
  agree_on_support "nan" smooth f [| big; big |];
  let slack = minus_slack (smooth_of problem ineq) in
  let g1 = compiled_fn ~phase1:true plan 1 in
  agree_on "slack zero exponent" slack g1 [| 0.0; log 2.0 /. 2.0; 1.0 |];
  agree_on_support ~slack:2 "slack +inf" slack g1 [| -.big; 0.0; 0.5 |];
  agree_on_support ~slack:2 "slack nan" slack g1 [| big; big; 0.5 |]

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
  let f = compiled_fn ~phase1:true (compile problem) 1 in
  agree_on "slack" smooth f (Vec.of_list [ 0.7; -0.1; 1.3 ]);
  agree_on "slack at s=0" smooth f (Vec.of_list [ 0.7; -0.1; 0.0 ])

let test_mixed_magnitudes () =
  (* A term with exponents 3 and 0.3: [(p *. 3) *. 0.3] and
     [(p *. 0.3) *. 3] round differently for some weights [p], so the
     function takes the per-entry path, and matches the dense walk bit
     for bit whether or not that walk's Hessian comes out symmetric. *)
  let objective =
    P.of_monomials [ M.make 1.0 [ (x0, 3.0); (x1, 0.3) ]; M.make 2.0 [ (x0, -1.0) ] ]
  in
  let problem = Gp.Problem.make ~objective () in
  let f = compiled_fn (compile problem) 0 in
  Alcotest.(check bool) "per-entry path" false f.Gp.Batch.f_mirror;
  let smooth = smooth_of problem objective in
  let asymmetric = ref 0 in
  for k = 0 to 99 do
    let y =
      Vec.of_list [ (float_of_int k /. 37.0) -. 1.3; (float_of_int (k * k mod 91) /. 13.0) -. 3.1 ]
    in
    agree_on (Printf.sprintf "point %d" k) smooth f y;
    let _, _, h = smooth.Gp.Smooth.eval y in
    if not (same_float (Mat.get h 0 1) (Mat.get h 1 0)) then incr asymmetric
  done;
  Alcotest.(check bool) "the dense Hessian is asymmetric at some point" true (!asymmetric > 0)

(* --- evaluation properties --- *)

(* A random posynomial over up to seven variables, mostly structural
   zeros like real formulations (each monomial mentions a few of the
   problem variables), plus a point to evaluate at. *)
let gen_posynomial_with ?(exponent = QCheck2.Gen.float_range (-3.0) 3.0) ~nterms coord =
  let open QCheck2.Gen in
  let* nvars = int_range 2 7 in
  let* nterms = nterms in
  let entry =
    let* zero = frequency [ (6, return true); (4, return false) ] in
    if zero then return 0.0 else exponent
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
  let* y = array_size (return nvars) coord in
  return (P.of_monomials terms, y)

let gen_posynomial =
  QCheck2.Gen.(gen_posynomial_with ~nterms:(int_range 1 6) (float_range (-3.0) 3.0))

(* Exponents of magnitude 1 and 0.5 only, so every function takes the
   mirrored path; under [gen_posynomial]'s exponents only those whose
   terms each mention at most one variable do. *)
let gen_mirrored_posynomial =
  QCheck2.Gen.(
    gen_posynomial_with
      ~exponent:(oneofl [ -1.0; -0.5; 0.5; 1.0 ])
      ~nterms:(int_range 1 6) (float_range (-3.0) 3.0))

(* Half single-term functions, at points with coordinates up to
   [max_float]: finite, but a term's exponent [sum c_i y_i + b]
   overflows to +inf or -inf, or to NaN where both meet in one term. *)
let gen_extreme_posynomial =
  let open QCheck2.Gen in
  gen_posynomial_with
    ~nterms:(frequency [ (1, return 1); (1, int_range 2 6) ])
    (frequency
       [
         (3, float_range (-3.0) 3.0);
         (1, return Float.max_float);
         (1, return (-.Float.max_float));
       ])

(* [poly] as the objective, and as the only inequality under a constant
   objective for its phase-I image; either way the problem's variables
   are exactly [poly]'s. *)
let prop_bit_identical =
  QCheck2.Test.make ~name:"compiled kernel is bit-identical to Smooth.log_sum_exp"
    ~count:500 gen_posynomial (fun (poly, y) ->
      let problem = Gp.Problem.make ~objective:poly () in
      let n = List.length (Gp.Problem.variables problem) in
      disagreements (smooth_of problem poly)
        (compiled_fn (compile problem) 0)
        (Vec.slice y 0 n)
      = [])

let prop_mirrored_bit_identical =
  QCheck2.Test.make ~name:"mirrored Hessians are bit-identical to Smooth.log_sum_exp"
    ~count:500 gen_mirrored_posynomial (fun (poly, y) ->
      let problem = Gp.Problem.make ~objective:poly () in
      let n = List.length (Gp.Problem.variables problem) in
      let f = compiled_fn (compile problem) 0 in
      let slack_problem = Gp.Problem.make ~objective:(P.const 1.0) ~ineqs:[ ("g", poly) ] () in
      f.Gp.Batch.f_mirror
      && disagreements (smooth_of problem poly) f (Vec.slice y 0 n) = []
      && disagreements
           (minus_slack (smooth_of slack_problem poly))
           (compiled_fn ~phase1:true (compile slack_problem) 1)
           (Vec.concat (Vec.slice y 0 n) [| 0.5 |])
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
        (compiled_fn ~phase1:true (compile problem) 1)
        (Vec.concat (Vec.slice y 0 n) [| 0.5 |])
      = [])

let prop_nonfinite_bit_identical =
  QCheck2.Test.make
    ~name:"compiled kernel matches Smooth.log_sum_exp at non-finite exponents" ~count:500
    gen_extreme_posynomial (fun (poly, y) ->
      let problem = Gp.Problem.make ~objective:poly () in
      let n = List.length (Gp.Problem.variables problem) in
      support_disagreements (smooth_of problem poly)
        (compiled_fn (compile problem) 0)
        (Vec.slice y 0 n)
      = [])

let prop_nonfinite_slack_bit_identical =
  QCheck2.Test.make
    ~name:"compiled slack extension matches at non-finite exponents" ~count:300
    gen_extreme_posynomial (fun (poly, y) ->
      let problem =
        Gp.Problem.make ~objective:(P.const 1.0) ~ineqs:[ ("g", poly) ] ()
      in
      let n = List.length (Gp.Problem.variables problem) in
      support_disagreements ~slack:n
        (minus_slack (smooth_of problem poly))
        (compiled_fn ~phase1:true (compile problem) 1)
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
          let plan = compile problem in
          List.for_all
            (fun (slot, poly) ->
              disagreements (smooth_of problem poly) (compiled_fn plan slot) y = [])
            (List.mapi
               (fun slot poly -> (slot, poly))
               (Gp.Problem.objective problem :: List.map snd (Gp.Problem.ineqs problem))))
        (family_problems input))

(* --- nullspace products --- *)

(* The Newton step's products re-derived as dense loops over the basis
   columns Mat.nullspace_basis returns, every sum over the full index
   range from +0.0: H z_j, z_j . (H z_l) for l <= j, -(z_j . grad), and
   Z u skipping exact-zero u_j. *)
let dense_products zcols ~n ~hess ~grad ~u =
  let q = Array.length zcols in
  let sum len f =
    let acc = ref 0.0 in
    for k = 0 to len - 1 do
      acc := !acc +. f k
    done;
    !acc
  in
  let hz =
    Array.init q (fun j ->
        Array.init n (fun i -> sum n (fun k -> hess.((i * n) + k) *. zcols.(j).(k))))
  in
  let hr =
    Array.init q (fun j -> Array.init (j + 1) (fun l -> sum n (fun i -> zcols.(j).(i) *. hz.(l).(i))))
  in
  let rhs = Array.init q (fun j -> -.sum n (fun i -> zcols.(j).(i) *. grad.(i))) in
  let dy = Array.make n 0.0 in
  Array.iteri
    (fun j z ->
      if u.(j) <> 0.0 then
        for i = 0 to n - 1 do
          dy.(i) <- dy.(i) +. (u.(j) *. z.(i))
        done)
    zcols;
  (hz, hr, rhs, dy)

type plant = Finite | In_hess of float | In_grad of float | In_u of float

(* Inputs drawn from [rng]: mostly exact or signed zeros in H, as the
   assembled Hessians are, some exact zeros in u; [plant] puts one
   non-finite value at a random position. *)
let draw_inputs rng ~n ~q plant =
  let entry () =
    match Random.State.int rng 6 with
    | 0 | 1 | 2 -> 0.0
    | 3 -> -0.0
    | _ -> Random.State.float rng 20.0 -. 10.0
  in
  let hess = Array.init (n * n) (fun _ -> entry ()) in
  let grad = Array.init n (fun _ -> Random.State.float rng 20.0 -. 10.0) in
  let u = Array.init q (fun _ -> if Random.State.int rng 4 = 0 then 0.0 else entry ()) in
  let put a v = if Array.length a > 0 then a.(Random.State.int rng (Array.length a)) <- v in
  (match plant with
  | Finite -> ()
  | In_hess v -> put hess v
  | In_grad v -> put grad v
  | In_u v -> put u v);
  (hess, grad, u)

(* [Batch.reduce] and [Batch.expand] over [zb] against the dense loops
   over [zcols]; the mismatching entries, by name. *)
let product_disagreements zb zcols ~hess ~grad ~u =
  let n = zb.Gp.Batch.z_n and q = zb.Gp.Batch.z_q in
  let hz_ref, hr_ref, rhs_ref, dy_ref = dense_products zcols ~n ~hess ~grad ~u in
  let hz = Array.make (q * n) nan in
  let hr = Array.make (q * q) 7.0 in
  let rhs = Array.make q nan in
  let dy = Array.make n 3.0 in
  Gp.Batch.reduce zb ~hess ~grad ~hz ~hr ~rhs;
  Gp.Batch.expand zb ~u ~dy;
  let bad = ref [] in
  let check name expected actual =
    if not (same_float expected actual) then bad := name :: !bad
  in
  if Array.length zcols <> q then bad := "column count" :: !bad
  else begin
    for j = 0 to q - 1 do
      for i = 0 to n - 1 do
        check (Printf.sprintf "hz.(%d).(%d)" j i) hz_ref.(j).(i) hz.((j * n) + i)
      done;
      for l = 0 to q - 1 do
        if l <= j then check (Printf.sprintf "hr.(%d,%d)" j l) hr_ref.(j).(l) hr.((j * q) + l)
        else check (Printf.sprintf "hr.(%d,%d) untouched" j l) 7.0 hr.((j * q) + l)
      done;
      check (Printf.sprintf "rhs.(%d)" j) rhs_ref.(j) rhs.(j)
    done;
    for i = 0 to n - 1 do
      check (Printf.sprintf "dy.(%d)" i) dy_ref.(i) dy.(i)
    done
  end;
  List.rev !bad

(* Both bases of a problem — phase II over n, phase I over n+1 with the
   slack — against the columns Mat.nullspace_basis returns for its
   equality rows. *)
let problem_products_agree rng plant problem =
  let lo = Gp.Batch.lower problem in
  let n = lo.Gp.Batch.lo_n and rows = lo.Gp.Batch.lo_rows in
  List.for_all
    (fun (n, rows) ->
      let zb = Gp.Batch.nullspace n rows in
      let hess, grad, u = draw_inputs rng ~n:zb.Gp.Batch.z_n ~q:zb.Gp.Batch.z_q plant in
      product_disagreements zb (Mat.nullspace_basis n rows) ~hess ~grad ~u = [])
    [ (n, rows); (n + 1, Array.map (fun a -> Vec.concat a [| 0.0 |]) rows) ]

let gen_plant =
  let open QCheck2.Gen in
  let bad = oneofl [ infinity; neg_infinity; nan ] in
  frequency
    [
      (3, return Finite);
      (1, map (fun v -> In_hess v) bad);
      (1, map (fun v -> In_grad v) bad);
      (1, map (fun v -> In_u v) bad);
    ]

let prop_products_family =
  QCheck2.Test.make ~name:"nullspace products match the dense loops (random programs)"
    ~count:300
    QCheck2.Gen.(triple gen_family gen_plant int)
    (fun (input, plant, seed) ->
      let rng = Random.State.make [| seed |] in
      Array.for_all
        (fun problem -> problem_products_agree rng plant problem)
        (family_problems input))

(* The same on real formulations: resnet-2's (choice, placement)
   programs on the fixed Eyeriss architecture and under the co-design
   area budget, whose bases are mostly exact zeros. *)
let test_products_zoo () =
  let module F = Thistle.Formulate in
  let module Perm = Thistle.Permutations in
  let tech = Archspec.Technology.table3 in
  let nest = Workload.Conv.to_nest (Workload.Zoo.find "resnet-2") in
  let plan = Perm.enumerate ~max_choices:2 nest in
  let rng = Random.State.make [| 16 |] in
  List.iter
    (fun mode ->
      List.iter
        (fun choice ->
          List.iter
            (fun placement ->
              let inst = F.build ~placement ~comm:Archspec.Link.Overlapped tech mode F.Energy plan choice in
              List.iter
                (fun plant ->
                  if not (problem_products_agree rng plant inst.F.problem) then
                    Alcotest.failf "%s: nullspace products differ from the dense loops"
                      inst.F.provenance)
                [ Finite; Finite; In_hess nan; In_hess infinity; In_grad neg_infinity; In_u nan;
                  In_u infinity ])
            plan.Perm.placements)
        plan.Perm.choices)
    [
      F.Fixed Archspec.Arch.eyeriss;
      F.Codesign { area_budget = Archspec.Arch.eyeriss_area tech };
    ]

(* [Batch.nullspace] keeps the last two row sets per domain: a repeated
   row set gets the kept basis back, which equals a fresh
   [Mat.nullspace_basis] bit for bit, and a row set one bit away gets
   its own. *)
let test_nullspace_memo () =
  let basis_bits (zb : Gp.Batch.basis) =
    let c = zb.Gp.Batch.z_full in
    ( zb.Gp.Batch.z_q,
      Array.to_list c.Gp.Batch.c_idx,
      List.map bits (Array.to_list c.Gp.Batch.c_val) )
  in
  let fresh_bits n rows =
    let zcols = Mat.nullspace_basis n rows in
    ( Array.length zcols,
      List.concat_map (fun _ -> List.init n Fun.id) (Array.to_list zcols),
      List.concat_map (fun z -> List.map bits (Array.to_list z)) (Array.to_list zcols) )
  in
  let rows () = [| [| 1.0; 2.0; 0.0; -0.5 |]; [| 0.0; 1.0; 3.0; 0.0 |] |] in
  let nudged = rows () in
  nudged.(0).(1) <- Int64.float_of_bits (Int64.succ (bits 2.0));
  let slack rs = Array.map (fun a -> Vec.concat a [| 0.0 |]) rs in
  let check name n rs =
    Alcotest.(check bool) name true (basis_bits (Gp.Batch.nullspace n rs) = fresh_bits n rs)
  in
  let a = Gp.Batch.nullspace 4 (rows ()) in
  let a1 = Gp.Batch.nullspace 5 (slack (rows ())) in
  Alcotest.(check bool) "repeated rows: the kept basis" true (Gp.Batch.nullspace 4 (rows ()) == a);
  Alcotest.(check bool) "repeated slack rows: the kept basis" true
    (Gp.Batch.nullspace 5 (slack (rows ())) == a1);
  check "repeated rows" 4 (rows ());
  check "repeated slack rows" 5 (slack (rows ()));
  let b = Gp.Batch.nullspace 4 nudged in
  Alcotest.(check bool) "one bit away: another basis" true (basis_bits b <> basis_bits a);
  check "one bit away" 4 nudged;
  (* [rows ()] was evicted by the nudged and slack row sets. *)
  check "after eviction" 4 (rows ());
  check "nudged again" 4 nudged

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
          Alcotest.test_case "non-finite single term" `Quick test_single_term_nonfinite;
          Alcotest.test_case "mixed exponent magnitudes" `Quick test_mixed_magnitudes;
          Alcotest.test_case "nullspace products, zoo" `Quick test_products_zoo;
          Alcotest.test_case "nullspace memo" `Quick test_nullspace_memo;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bit_identical;
            prop_mirrored_bit_identical;
            prop_slack_bit_identical;
            prop_nonfinite_bit_identical;
            prop_nonfinite_slack_bit_identical;
            prop_program_eval_bit_identical;
            prop_products_family;
            prop_default_matches_list;
          ] );
    ]
