(* Tests for the symbolic expression layer: monomials, posynomials and the
   factored footprint forms used by Algorithm 1. *)

module M = Symexpr.Monomial
module P = Symexpr.Posynomial
module AD = Symexpr.Affine_dim
module FP = Symexpr.Footprint

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs b)

let env_of_list assoc x = List.assoc x assoc

(* --- Monomial --- *)

let test_monomial_normalization () =
  let m = M.make 2.0 [ ("y", 1.0); ("x", 2.0); ("y", 1.0) ] in
  Alcotest.(check (list (pair string (float 0.0))))
    "merged and sorted"
    [ ("x", 2.0); ("y", 2.0) ]
    (M.exponents m);
  let zero_exp = M.make 3.0 [ ("x", 1.0); ("x", -1.0) ] in
  Alcotest.(check (list (pair string (float 0.0)))) "zero dropped" [] (M.exponents zero_exp)

let test_monomial_algebra () =
  let x = M.var "x" and y = M.var "y" in
  let m = M.mul (M.scale 3.0 x) (M.pow y 2.0) in
  Alcotest.(check bool)
    "3 x y^2" true
    (M.equal m (M.make 3.0 [ ("x", 1.0); ("y", 2.0) ]));
  let d = M.div m (M.scale 3.0 y) in
  Alcotest.(check bool) "x y" true (M.equal d (M.make 1.0 [ ("x", 1.0); ("y", 1.0) ]));
  Alcotest.(check bool)
    "pow" true
    (M.equal (M.pow m 0.5) (M.make (sqrt 3.0) [ ("x", 0.5); ("y", 1.0) ]))

let test_monomial_eval () =
  let m = M.make 2.0 [ ("x", 2.0); ("y", -1.0) ] in
  Alcotest.(check bool)
    "eval" true
    (approx 6.0 (M.eval (env_of_list [ ("x", 3.0); ("y", 3.0) ]) m))

let test_monomial_subst () =
  (* Algorithm 1's replace: x := x * q. *)
  let m = M.make 2.0 [ ("x", 2.0); ("y", 1.0) ] in
  let m' = M.subst "x" (M.mul (M.var "x") (M.var "q")) m in
  Alcotest.(check bool)
    "x^2 -> x^2 q^2" true
    (M.equal m' (M.make 2.0 [ ("x", 2.0); ("q", 2.0); ("y", 1.0) ]))

let test_monomial_bind () =
  let m = M.make 2.0 [ ("x", 2.0); ("y", 1.0) ] in
  let m' = M.bind "x" 3.0 m in
  Alcotest.(check bool) "bound" true (M.equal m' (M.make 18.0 [ ("y", 1.0) ]));
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Monomial.bind: value must be finite positive") (fun () ->
      ignore (M.bind "x" 0.0 m))

let test_monomial_positive_coeff () =
  Alcotest.check_raises "nonpositive coeff"
    (Invalid_argument "Monomial.make: coefficient must be finite positive (got -1)") (fun () ->
      ignore (M.make (-1.0) []))

(* --- Posynomial --- *)

let test_posynomial_merge () =
  let p = P.of_monomials [ M.var "x"; M.scale 2.0 (M.var "x"); M.var "y" ] in
  Alcotest.(check int) "two terms" 2 (P.num_terms p);
  Alcotest.(check bool)
    "3x + y" true
    (P.equal p (P.add (P.scale 3.0 (P.var "x")) (P.var "y")))

let test_posynomial_mul () =
  let p = P.add (P.var "x") (P.const 1.0) in
  let q = P.add (P.var "y") (P.const 2.0) in
  let r = P.mul p q in
  (* (x+1)(y+2) = xy + 2x + y + 2 *)
  Alcotest.(check int) "four terms" 4 (P.num_terms r);
  let env = env_of_list [ ("x", 2.0); ("y", 5.0) ] in
  Alcotest.(check bool) "eval matches" true (approx (3.0 *. 7.0) (P.eval env r))

let test_posynomial_div_monomial () =
  let p = P.add (P.var "x") (P.var "y") in
  let d = P.div_monomial p (M.var "x") in
  let env = env_of_list [ ("x", 4.0); ("y", 8.0) ] in
  Alcotest.(check bool) "(x+y)/x" true (approx 3.0 (P.eval env d))

let test_posynomial_bind () =
  (* Binding may merge previously-distinct terms. *)
  let p = P.of_monomials [ M.make 1.0 [ ("x", 1.0) ]; M.make 1.0 [ ("y", 1.0) ] ] in
  let b = P.bind "x" 2.0 (P.bind "y" 2.0 p) in
  Alcotest.(check bool) "merged constant" true (P.equal b (P.const 4.0));
  Alcotest.(check int) "single term" 1 (P.num_terms b)

let test_posynomial_order_blind () =
  (* [mul_monomial] keeps its argument's term order, which is not sorted
     here; equality and order look at the normal form. *)
  let x = M.var "x" and y = M.var "y" and z = M.var "z" in
  let a =
    P.mul_monomial (M.var_pow "x" (-1.0)) (P.add (P.of_monomial (M.mul x y)) (P.of_monomial z))
  in
  let b = P.of_monomials [ y; M.div z x ] in
  Alcotest.(check string) "order kept" "y + x^-1*z" (P.to_string a);
  Alcotest.(check string) "sorted" "x^-1*z + y" (P.to_string b);
  Alcotest.(check bool) "equal" true (P.equal a b);
  Alcotest.(check int) "compare" 0 (P.compare a b);
  Alcotest.(check bool) "unequal to a different sum" false (P.equal a (P.of_monomials [ y; z ]))

(* --- Affine_dim / Footprint --- *)

let test_affine_dim_exact () =
  (* x*h + r with stride 2 and tile extents h=4, r=3: 2*4 + 3 - 2 = 9. *)
  let d = AD.make [ (2, M.var "h"); (1, M.var "r") ] (-2) in
  let env = env_of_list [ ("h", 4.0); ("r", 3.0) ] in
  Alcotest.(check bool) "exact" true (approx 9.0 (AD.eval_exact env d));
  (* Relaxed view drops the negative constant: 2h + r = 11. *)
  Alcotest.(check bool) "relaxed" true (approx 11.0 (P.eval env (AD.to_posynomial d)))

let test_affine_dim_subst () =
  let d = AD.make [ (1, M.var "h"); (1, M.var "r") ] (-1) in
  let d' = AD.subst "h" (M.mul (M.var "h") (M.var "q")) d in
  let env = env_of_list [ ("h", 4.0); ("r", 3.0); ("q", 2.0) ] in
  Alcotest.(check bool) "h q + r - 1" true (approx 10.0 (AD.eval_exact env d'))

let test_footprint_product () =
  let fp =
    FP.make
      [ AD.of_extent (M.var "a"); AD.make [ (1, M.var "b"); (1, M.var "c") ] (-1) ]
  in
  let env = env_of_list [ ("a", 5.0); ("b", 3.0); ("c", 2.0) ] in
  Alcotest.(check bool) "5 * 4" true (approx 20.0 (FP.eval_exact env fp));
  (* Posynomial view: a * (b + c) has 2 terms. *)
  Alcotest.(check int) "expanded terms" 2 (P.num_terms (FP.to_posynomial fp))

(* --- properties --- *)

let gen_monomial =
  let open QCheck2.Gen in
  let* coeff = float_range 0.1 10.0 in
  let* exps =
    small_list (pair (oneofl [ "x"; "y"; "z" ]) (float_range (-2.0) 2.0))
  in
  return (M.make coeff exps)

let gen_env =
  let open QCheck2.Gen in
  let* x = float_range 0.5 4.0 in
  let* y = float_range 0.5 4.0 in
  let* z = float_range 0.5 4.0 in
  return (env_of_list [ ("x", x); ("y", y); ("z", z) ])

let prop_monomial_mul_eval =
  QCheck2.Test.make ~name:"eval (a*b) = eval a * eval b" ~count:300
    QCheck2.Gen.(triple gen_monomial gen_monomial gen_env)
    (fun (a, b, env) -> approx ~eps:1e-6 (M.eval env a *. M.eval env b) (M.eval env (M.mul a b)))

let gen_posynomial =
  QCheck2.Gen.(map P.of_monomials (list_size (int_range 1 6) gen_monomial))

let prop_posynomial_add_eval =
  QCheck2.Test.make ~name:"eval (p+q) = eval p + eval q" ~count:300
    QCheck2.Gen.(triple gen_posynomial gen_posynomial gen_env)
    (fun (p, q, env) ->
      approx ~eps:1e-6 (P.eval env p +. P.eval env q) (P.eval env (P.add p q)))

let prop_posynomial_mul_eval =
  QCheck2.Test.make ~name:"eval (p*q) = eval p * eval q" ~count:300
    QCheck2.Gen.(triple gen_posynomial gen_posynomial gen_env)
    (fun (p, q, env) ->
      approx ~eps:1e-6 (P.eval env p *. P.eval env q) (P.eval env (P.mul p q)))

let prop_bind_is_eval =
  QCheck2.Test.make ~name:"bind then eval = eval" ~count:300
    QCheck2.Gen.(triple gen_posynomial (float_range 0.5 4.0) gen_env)
    (fun (p, v, env) ->
      let bound = P.bind "x" v p in
      let env' var = if String.equal var "x" then v else env var in
      approx ~eps:1e-6 (P.eval env' p) (P.eval env' bound) && not (List.mem "x" (P.variables bound)))

(* --- the sort-based oracle --- *)

(* Normalization as a sort and a merge, kept here as the oracle of the
   library's one-pass forms: exponents sorted by name, like names
   summed in input order, zeros dropped; terms sorted by polymorphic
   [compare] on their exponent lists, like terms summed. *)
let ref_exps exps =
  let sorted = List.sort (fun (x, _) (y, _) -> String.compare x y) exps in
  let rec merge = function
    | (x, a) :: (y, b) :: rest when String.equal x y -> merge ((x, a +. b) :: rest)
    | pair :: rest -> pair :: merge rest
    | [] -> []
  in
  List.filter (fun (_, a) -> a <> 0.0) (merge sorted)

let ref_compare_exponents a b = compare (M.exponents a) (M.exponents b)

let ref_terms ms =
  let sorted = List.sort ref_compare_exponents ms in
  let rec merge = function
    | a :: b :: rest when ref_compare_exponents a b = 0 ->
      merge (M.make (M.coeff a +. M.coeff b) (M.exponents a) :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  merge sorted

let bits = Int64.bits_of_float

let same_exps a b =
  List.equal (fun (x, e) (y, f) -> String.equal x y && Int64.equal (bits e) (bits f)) a b

let same_monomial c exps m =
  Int64.equal (bits c) (bits (M.coeff m)) && same_exps exps (M.exponents m)

let same_terms expected p =
  List.equal (fun a b -> same_monomial (M.coeff a) (M.exponents a) b) expected (P.terms p)

(* Exponent lists over few names, so names repeat, with exponents that
   cancel to zero; in random order, or strictly sorted. *)
let gen_exps =
  let open QCheck2.Gen in
  let* raw =
    list_size (int_range 0 6)
      (pair (oneofl [ "a"; "b"; "x"; "y"; "z" ])
         (frequency
            [
              (2, oneofl [ 0.0; -1.0; 1.0; 0.5; -0.5; 2.0 ]);
              (1, float_range (-3.0) 3.0);
            ]))
  in
  oneofl [ raw; List.sort_uniq (fun (x, _) (y, _) -> String.compare x y) raw ]

let gen_exps_monomial =
  QCheck2.Gen.(map2 (fun c exps -> (c, exps)) (float_range 0.1 10.0) gen_exps)

let prop_monomial_oracle =
  QCheck2.Test.make ~name:"make, mul and div equal the sort-based oracle" ~count:1000
    QCheck2.Gen.(pair gen_exps_monomial gen_exps_monomial)
    (fun ((ca, ea), (cb, eb)) ->
      let a = M.make ca ea and b = M.make cb eb in
      same_monomial ca (ref_exps ea) a
      && same_monomial (ca *. cb) (ref_exps (M.exponents a @ M.exponents b)) (M.mul a b)
      && same_monomial (ca /. cb)
           (ref_exps (M.exponents a @ List.map (fun (x, e) -> (x, -.e)) (M.exponents b)))
           (M.div a b)
      && M.compare_exponents a b = ref_compare_exponents a b)

(* Term lists as given (in random order, with like terms), or in the
   oracle's order (strictly sorted: the fast path); and a monomial to
   multiply a sum by, which keeps its order, unsorted in general. *)
let gen_terms =
  let open QCheck2.Gen in
  let monomial = map (fun (c, e) -> M.make c e) gen_exps_monomial in
  let* ms = list_size (int_range 0 5) monomial in
  let* m = monomial in
  map (fun ms -> (ms, m)) (oneofl [ ms; ref_terms ms ])

let prop_posynomial_oracle =
  QCheck2.Test.make ~name:"of_monomials, add and bind equal the sort-based oracle" ~count:1000
    QCheck2.Gen.(triple gen_terms gen_terms (float_range 0.5 4.0))
    (fun ((ms, m), (ns, _), v) ->
      let p = P.of_monomials ms and q = P.of_monomials ns in
      let u = P.mul_monomial m p in
      same_terms (ref_terms ms) p
      && same_terms (ref_terms (P.terms p @ P.terms q)) (P.add p q)
      && same_terms (ref_terms (P.terms u @ P.terms q)) (P.add u q)
      && same_terms (ref_terms (List.map (M.bind "x" v) (P.terms u))) (P.bind "x" v u)
      && P.equal u (P.of_monomials (P.terms u)))

let () =
  Alcotest.run "symexpr"
    [
      ( "monomial",
        [
          Alcotest.test_case "normalization" `Quick test_monomial_normalization;
          Alcotest.test_case "algebra" `Quick test_monomial_algebra;
          Alcotest.test_case "eval" `Quick test_monomial_eval;
          Alcotest.test_case "subst" `Quick test_monomial_subst;
          Alcotest.test_case "bind" `Quick test_monomial_bind;
          Alcotest.test_case "positive coeff" `Quick test_monomial_positive_coeff;
        ] );
      ( "posynomial",
        [
          Alcotest.test_case "merge like terms" `Quick test_posynomial_merge;
          Alcotest.test_case "mul" `Quick test_posynomial_mul;
          Alcotest.test_case "div by monomial" `Quick test_posynomial_div_monomial;
          Alcotest.test_case "bind" `Quick test_posynomial_bind;
          Alcotest.test_case "equality ignores term order" `Quick test_posynomial_order_blind;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "affine exact vs relaxed" `Quick test_affine_dim_exact;
          Alcotest.test_case "affine subst" `Quick test_affine_dim_subst;
          Alcotest.test_case "product" `Quick test_footprint_product;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_monomial_mul_eval;
            prop_posynomial_add_eval;
            prop_posynomial_mul_eval;
            prop_bind_is_eval;
            prop_monomial_oracle;
            prop_posynomial_oracle;
          ] );
    ]
