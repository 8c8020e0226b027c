(* Tests for the shared domain pool (Exec.Pool) and the order-preserving,
   exception-safe parallel map (Exec.Par). *)

module Pool = Exec.Pool
module Par = Exec.Par

let test_map_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "order preserved" (List.map f xs) (Par.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "empty" [] (Par.map ~jobs:4 f []);
  Alcotest.(check (list int)) "singleton" [ 10 ] (Par.map ~jobs:4 f [ 3 ])

let test_unbalanced_work_keeps_order () =
  (* Early items carry far more work than late ones, so lanes finish out
     of submission order; the result must not. *)
  let n = 64 in
  let xs = List.init n Fun.id in
  let f i =
    let spins = (n - i) * 2000 in
    let acc = ref 0 in
    for k = 1 to spins do
      acc := (!acc + k) mod 1000003
    done;
    (i, !acc land 0)
  in
  Alcotest.(check (list (pair int int))) "order under skew" (List.map f xs)
    (Par.map ~jobs:4 f xs)

exception Boom of int

let test_exception_propagates () =
  let xs = List.init 20 Fun.id in
  match Par.map ~jobs:4 (fun x -> if x >= 7 then raise (Boom x) else x) xs with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x ->
    (* Every item >= 7 raises; the lowest index must win, mirroring the
       failure sequential evaluation would surface. *)
    Alcotest.(check int) "lowest failing index wins" 7 x

let test_pool_still_usable_after_exception () =
  (try ignore (Par.map ~jobs:4 (fun _ -> raise Exit) [ 1; 2; 3 ]) with Exit -> ());
  Alcotest.(check (list int))
    "subsequent batch unaffected" [ 2; 4; 6 ]
    (Par.map ~jobs:4 (fun x -> 2 * x) [ 1; 2; 3 ])

let test_nested_map_falls_back () =
  (* Nested parallel loops run sequentially inside pool tasks, with the
     same results. *)
  let inner i = Par.map ~jobs:4 (fun j -> (i * 10) + j) (List.init 5 Fun.id) in
  let expected = List.map inner (List.init 4 Fun.id) in
  Alcotest.(check (list (list int))) "nested" expected (Par.map ~jobs:4 inner (List.init 4 Fun.id))

let test_private_pool_and_shutdown () =
  let pool = Pool.create ~workers:2 in
  Alcotest.(check int) "size" 2 (Pool.size pool);
  let r = Par.map ~pool ~jobs:3 (fun x -> x + 1) (List.init 10 Fun.id) in
  Alcotest.(check (list int)) "private pool" (List.init 10 (fun i -> i + 1)) r;
  Pool.shutdown pool;
  Alcotest.(check int) "size after shutdown" 0 (Pool.size pool);
  (* A shut-down pool still completes batches on the calling domain. *)
  let r = Par.map ~pool ~jobs:3 (fun x -> x * 2) (List.init 10 Fun.id) in
  Alcotest.(check (list int)) "after shutdown" (List.init 10 (fun i -> i * 2)) r

let test_zero_worker_pool () =
  let pool = Pool.create ~workers:0 in
  let r = Par.map ~pool ~jobs:4 (fun x -> x - 1) (List.init 10 Fun.id) in
  Alcotest.(check (list int)) "caller-only pool" (List.init 10 (fun i -> i - 1)) r;
  Pool.shutdown pool

let prop_map_equals_list_map =
  let gen = QCheck2.Gen.(pair (small_list small_int) (int_range 1 8)) in
  QCheck2.Test.make ~name:"Par.map = List.map for any jobs" ~count:200 gen
    (fun (xs, jobs) ->
      let f x = (x * 3) + 1 in
      Par.map ~jobs f xs = List.map f xs)

let () =
  Alcotest.run "exec"
    [
      ( "par",
        [
          Alcotest.test_case "map order" `Quick test_map_matches_sequential;
          Alcotest.test_case "unbalanced work" `Quick test_unbalanced_work_keeps_order;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "pool survives exceptions" `Quick
            test_pool_still_usable_after_exception;
          Alcotest.test_case "nested fallback" `Quick test_nested_map_falls_back;
        ] );
      ( "pool",
        [
          Alcotest.test_case "private pool + shutdown" `Quick test_private_pool_and_shutdown;
          Alcotest.test_case "zero workers" `Quick test_zero_worker_pool;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_map_equals_list_map ] );
    ]
