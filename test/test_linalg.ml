(* Unit and property tests for the dense linear-algebra kernels backing
   the GP solver. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs b)

let check_float name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %g, got %g" name expected actual)
    true (approx expected actual)

(* --- Vec --- *)

let test_vec_basics () =
  let x = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  let y = Vec.of_list [ 4.0; 5.0; 6.0 ] in
  check_float "dot" 32.0 (Vec.dot x y);
  Alcotest.(check (list (float 1e-12))) "add" [ 5.0; 7.0; 9.0 ] (Vec.to_list (Vec.add x y));
  Alcotest.(check (list (float 1e-12))) "sub" [ -3.0; -3.0; -3.0 ] (Vec.to_list (Vec.sub x y));
  Alcotest.(check (list (float 1e-12)))
    "axpy" [ 6.0; 9.0; 12.0 ]
    (Vec.to_list (Vec.axpy 2.0 x y));
  check_float "norm2" (sqrt 14.0) (Vec.norm2 x);
  check_float "norm_inf" 3.0 (Vec.norm_inf x);
  check_float "max_elt" 3.0 (Vec.max_elt x)

let test_vec_slice_concat () =
  let x = Vec.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (list (float 0.0))) "slice" [ 2.0; 3.0 ] (Vec.to_list (Vec.slice x 1 2));
  Alcotest.(check (list (float 0.0)))
    "concat" [ 1.0; 2.0; 3.0; 4.0; 9.0 ]
    (Vec.to_list (Vec.concat x [| 9.0 |]))

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

(* --- Mat --- *)

let test_mat_mul () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let test_mul_vec () =
  let a = Mat.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  Alcotest.(check (list (float 1e-12)))
    "mul_vec" [ 14.0; 32.0 ]
    (Vec.to_list (Mat.mul_vec a [| 1.0; 2.0; 3.0 |]));
  Alcotest.(check (list (float 1e-12)))
    "mul_trans_vec" [ 9.0; 12.0; 15.0 ]
    (Vec.to_list (Mat.mul_trans_vec a [| 1.0; 2.0 |]))

let test_lu_solve_known () =
  let a = Mat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Mat.lu_solve a [| 3.0; 5.0 |] in
  check_float "x0" 0.8 x.(0);
  check_float "x1" 1.4 x.(1)

let test_lu_needs_pivoting () =
  (* Zero on the initial diagonal forces a row swap. *)
  let a = Mat.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Mat.lu_solve a [| 7.0; 9.0 |] in
  check_float "x0" 9.0 x.(0);
  check_float "x1" 7.0 x.(1)

let test_lu_singular () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" Mat.Singular (fun () ->
      ignore (Mat.lu_solve a [| 1.0; 1.0 |]))

let test_lu_factored_matches () =
  (* Same systems as the direct lu tests, via the factored path; the
     factorization is reused across two right-hand sides.  Equality is
     bitwise: the solver factors its least-norm Gram system once and
     solves it for the cold start and for a warm start's projection
     (Gp.Solver). *)
  let same name a b =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %h vs %h" name a b)
      true
      (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
  in
  let a = Mat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let lu = Mat.lu_factor a in
  Array.iter
    (fun b ->
      let x = Mat.lu_solve a b in
      let x' = Mat.lu_solve_factored lu b in
      same "x0" x.(0) x'.(0);
      same "x1" x.(1) x'.(1))
    [| [| 3.0; 5.0 |]; [| -1.0; 4.0 |] |];
  (* Zero on the initial diagonal forces a row swap. *)
  let p = Mat.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Mat.lu_solve_factored (Mat.lu_factor p) [| 7.0; 9.0 |] in
  check_float "swap x0" 9.0 x.(0);
  check_float "swap x1" 7.0 x.(1)

let test_lu_factor_singular () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" Mat.Singular (fun () -> ignore (Mat.lu_factor a))

let test_nullspace_basis () =
  (* One row in R^3: the basis must be orthonormal, orthogonal to the
     row, and of dimension 2; rank-deficient (duplicated) rows collapse
     to the same basis. *)
  let row = [| 1.0; 1.0; 0.0 |] in
  let z = Mat.nullspace_basis 3 [| row |] in
  Alcotest.(check int) "dim" 2 (Array.length z);
  Array.iter
    (fun v ->
      check_float "orthogonal to row" 0.0 (Vec.dot row v);
      check_float "unit norm" 1.0 (Vec.norm2 v))
    z;
  check_float "mutually orthogonal" 0.0 (Vec.dot z.(0) z.(1));
  let z2 = Mat.nullspace_basis 3 [| row; Vec.copy row |] in
  Alcotest.(check int) "rank-deficient dim" 2 (Array.length z2)

(* The Cholesky factor of [a] as the solver computes it: the lower
   triangle of [a], factored in place, with a zero strict upper
   triangle. *)
let factor n a =
  let l = Mat.init n n (fun i j -> if j <= i then Mat.get a i j else 0.0) in
  Mat.cholesky_in_place l;
  l

(* Solves [a x = b] through the factor, as the solver does. *)
let solve_spd n a b =
  let x = Array.copy b in
  Mat.cholesky_solve_in_place (factor n a) x;
  x

let test_cholesky_known () =
  let a = Mat.of_rows [| [| 4.0; 2.0 |]; [| 2.0; 3.0 |] |] in
  let l = factor 2 a in
  check_float "l00" 2.0 (Mat.get l 0 0);
  check_float "l10" 1.0 (Mat.get l 1 0);
  check_float "l11" (sqrt 2.0) (Mat.get l 1 1);
  let x = solve_spd 2 a [| 8.0; 7.0 |] in
  check_float "x0" 1.25 x.(0);
  check_float "x1" 1.5 x.(1)

let test_cholesky_not_pd () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "not PD" Mat.Singular (fun () -> ignore (factor 2 a))

let test_cholesky_in_place () =
  (* Stale data in the strict upper triangle must neither be read nor
     overwritten: solver workspaces refill only the lower triangle. *)
  let buf = Mat.of_rows [| [| 4.0; 99.0 |]; [| 2.0; 3.0 |] |] in
  Mat.cholesky_in_place buf;
  check_float "l00" 2.0 (Mat.get buf 0 0);
  check_float "l10" 1.0 (Mat.get buf 1 0);
  check_float "l11" (sqrt 2.0) (Mat.get buf 1 1);
  check_float "upper untouched" 99.0 (Mat.get buf 0 1);
  let y = [| 8.0; 7.0 |] in
  Mat.cholesky_solve_in_place buf y;
  check_float "x0" 1.25 y.(0);
  check_float "x1" 1.5 y.(1)

let test_cholesky_refactor_reuse () =
  (* The same buffer factors a second matrix correctly after refilling
     only the lower triangle. *)
  let buf = Mat.create 2 2 in
  let load rows =
    for i = 0 to 1 do
      for j = 0 to i do
        Mat.set buf i j rows.(i).(j)
      done
    done
  in
  load [| [| 4.0; 0.0 |]; [| 2.0; 3.0 |] |];
  Mat.cholesky_in_place buf;
  load [| [| 9.0; 0.0 |]; [| 3.0; 5.0 |] |];
  Mat.cholesky_in_place buf;
  check_float "l00" 3.0 (Mat.get buf 0 0);
  check_float "l10" 1.0 (Mat.get buf 1 0);
  check_float "l11" 2.0 (Mat.get buf 1 1)

(* --- properties --- *)

let gen_system n =
  let open QCheck2.Gen in
  let entry = float_range (-2.0) 2.0 in
  let* rows = array_size (return n) (array_size (return n) entry) in
  let* x = array_size (return n) (float_range (-5.0) 5.0) in
  (* Diagonal dominance keeps the system comfortably non-singular. *)
  let a =
    Mat.init n n (fun i j ->
        rows.(i).(j) +. if i = j then 4.0 *. float_of_int n else 0.0)
  in
  return (a, x)

let prop_lu_roundtrip =
  QCheck2.Test.make ~name:"lu_solve recovers x from A x" ~count:200 (gen_system 5)
    (fun (a, x) ->
      let b = Mat.mul_vec a x in
      let x' = Mat.lu_solve a b in
      Vec.norm_inf (Vec.sub x x') < 1e-8)

let gen_spd n =
  let open QCheck2.Gen in
  let entry = float_range (-2.0) 2.0 in
  let* rows = array_size (return n) (array_size (return n) entry) in
  let b = Mat.init n n (fun i j -> rows.(i).(j)) in
  (* B^T B + I is symmetric positive definite. *)
  let a = Mat.add (Mat.mul (Mat.transpose b) b) (Mat.identity n) in
  let* x = array_size (return n) (float_range (-5.0) 5.0) in
  return (a, x)

let prop_lu_factored_bit_identical =
  QCheck2.Test.make ~name:"lu_solve_factored = lu_solve, bitwise" ~count:300
    (gen_system 5) (fun (a, x) ->
      let b = Mat.mul_vec a x in
      let direct = Mat.lu_solve a b in
      let factored = Mat.lu_solve_factored (Mat.lu_factor a) b in
      Array.for_all2
        (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
        direct factored)

let gen_pivoting_system n =
  (* Break diagonal dominance so partial pivoting actually swaps rows:
     the top-left entry is forced small. *)
  let open QCheck2.Gen in
  let* a, x = gen_system n in
  let a' = Mat.copy a in
  Mat.set a' 0 0 1e-3;
  return (a', x)

let prop_lu_factored_bit_identical_pivoting =
  QCheck2.Test.make ~name:"lu_solve_factored = lu_solve under pivoting" ~count:300
    (gen_pivoting_system 5) (fun (a, x) ->
      let b = Mat.mul_vec a x in
      match Mat.lu_solve a b with
      | direct ->
        let factored = Mat.lu_solve_factored (Mat.lu_factor a) b in
        Array.for_all2
          (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
          direct factored
      | exception Mat.Singular -> (
        match Mat.lu_factor a with
        | _ -> false
        | exception Mat.Singular -> true))

let prop_cholesky_roundtrip =
  QCheck2.Test.make ~name:"cholesky solve recovers x" ~count:200 (gen_spd 5)
    (fun (a, x) ->
      let b = Mat.mul_vec a x in
      let x' = solve_spd 5 a b in
      Vec.norm_inf (Vec.sub x x') < 1e-7)

let prop_cholesky_factor =
  QCheck2.Test.make ~name:"L L^T = A" ~count:200 (gen_spd 4) (fun (a, _) ->
      let l = factor 4 a in
      let llt = Mat.mul l (Mat.transpose l) in
      let ok = ref true in
      for i = 0 to 3 do
        for j = 0 to 3 do
          if Float.abs (Mat.get llt i j -. Mat.get a i j) > 1e-9 then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "slice/concat" `Quick test_vec_slice_concat;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_mismatch;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "mul_vec" `Quick test_mul_vec;
          Alcotest.test_case "lu known" `Quick test_lu_solve_known;
          Alcotest.test_case "lu pivoting" `Quick test_lu_needs_pivoting;
          Alcotest.test_case "lu singular" `Quick test_lu_singular;
          Alcotest.test_case "lu factored matches" `Quick test_lu_factored_matches;
          Alcotest.test_case "lu factor singular" `Quick test_lu_factor_singular;
          Alcotest.test_case "nullspace basis" `Quick test_nullspace_basis;
          Alcotest.test_case "cholesky known" `Quick test_cholesky_known;
          Alcotest.test_case "cholesky not PD" `Quick test_cholesky_not_pd;
          Alcotest.test_case "cholesky in place" `Quick test_cholesky_in_place;
          Alcotest.test_case "cholesky refactor reuse" `Quick test_cholesky_refactor_reuse;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lu_roundtrip;
            prop_lu_factored_bit_identical;
            prop_lu_factored_bit_identical_pivoting;
            prop_cholesky_roundtrip;
            prop_cholesky_factor;
          ] );
    ]
