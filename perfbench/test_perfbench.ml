(* Tests of the benchmark harness's statistics, request draws and stage
   replay. *)

module Stats = Perfbench.Stats
module Gen = Perfbench.Gen
module O = Thistle.Optimize
module F = Thistle.Formulate

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)

let test_stats () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  expect "p50 nearest rank" (Stats.percentile 0.5 xs = 50.0);
  expect "p99 nearest rank" (Stats.percentile 0.99 xs = 99.0);
  expect "p100 is the max" (Stats.percentile 1.0 xs = 100.0);
  expect "tiny p is the min" (Stats.percentile 0.001 xs = 1.0);
  expect "one sample beyond p99 of 100" (Stats.beyond 0.99 xs = 1);
  expect "ten beyond p99 of 1000" (Stats.beyond 0.99 (List.init 1000 float_of_int) = 10);
  expect "median odd" (Stats.median [ 3.0; 1.0; 2.0 ] = 2.0);
  expect "median even" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  expect "geomean" (close (Stats.geomean [ 2.0; 8.0 ]) 4.0);
  expect "geomean of one" (close (Stats.geomean [ 7.5 ]) 7.5);
  expect "geomean rejects zero"
    (match Stats.geomean [ 1.0; 0.0 ] with _ -> false | exception Invalid_argument _ -> true);
  expect "median rejects empty"
    (match Stats.median [] with _ -> false | exception Invalid_argument _ -> true)

let test_allocate () =
  expect "proportional" (Gen.allocate 10 [| 25; 9; 3 |] = [| 7; 2; 1 |]);
  expect "all" (Gen.allocate 37 [| 25; 9; 3 |] = [| 25; 9; 3 |]);
  expect "none" (Gen.allocate 0 [| 25; 9; 3 |] = [| 0; 0; 0 |]);
  List.iter
    (fun n ->
      let a = Gen.allocate n [| 25; 9; 3 |] in
      expect (Printf.sprintf "sums to %d" n) (Array.fold_left ( + ) 0 a = n);
      expect (Printf.sprintf "within sizes at %d" n) (a.(0) <= 25 && a.(1) <= 9 && a.(2) <= 3))
    (List.init 38 Fun.id)

let draw seed n =
  Gen.stratified (Gen.rng seed) ~n
    ~key:(fun (c : Workload.Conv.t) -> c.Workload.Conv.out_channels * c.Workload.Conv.in_channels)
    (Gen.window_strata (Gen.zoo_shapes ()))

let names = List.map (fun (c : Workload.Conv.t) -> c.Workload.Conv.layer_name)

let test_draw () =
  let pool = Gen.zoo_shapes () in
  expect "41 layers, 37 shapes" (List.length pool = 37);
  expect "duplicate shapes dropped"
    (not (List.exists (fun n -> List.mem n [ "vgg-7"; "vgg-10"; "vgg-12"; "vgg-13" ]) (names pool)));
  expect "same seed, same list" (names (draw 7 20) = names (draw 7 20));
  expect "another seed, another list" (names (draw 7 20) <> names (draw 8 20));
  List.iter
    (fun seed ->
      let d = draw seed 20 in
      let window k = List.length (List.filter (fun (c : Workload.Conv.t) -> c.Workload.Conv.kernel = k) d) in
      expect "twenty requests" (List.length d = 20);
      expect "no repeated shape" (List.length (List.sort_uniq compare (names d)) = 20);
      expect "same window mix every seed" (window 3 = 13 && window 1 = 5))
    (List.init 20 Fun.id);
  let s = Gen.stream (Gen.rng 3) ~distinct:5 ~repeats:19 in
  expect "stream length" (List.length s = 100);
  expect "first asks in order"
    (List.filteri (fun i _ -> i mod 20 = 0) s = [ 0; 1; 2; 3; 4 ]);
  expect "repeats only of asked requests"
    (List.for_all Fun.id (List.mapi (fun i j -> j <= i / 20) s));
  expect "stream deterministic" (Gen.stream (Gen.rng 4) ~distinct:9 ~repeats:5 = Gen.stream (Gen.rng 4) ~distinct:9 ~repeats:5)

(* The replay rebuilds the library's report, on both workloads'
   configurations. *)
let test_replay () =
  let config = { O.default_config with O.jobs = 1 } in
  let tech = Archspec.Technology.table3 in
  let codesign = F.Codesign { area_budget = Archspec.Arch.eyeriss_area tech } in
  let timer = { Perfbench.Replay.time = (fun _ f -> f ()) } in
  List.iter
    (fun (layer, config, tech, mode, objective) ->
      let nest = Workload.Conv.to_nest (Workload.Zoo.find layer) in
      let r = Perfbench.Replay.run ~timer ~config tech mode objective nest in
      match (O.run ~config tech mode objective nest, r.Perfbench.Replay.report) with
      | Ok a, Ok b ->
        expect (layer ^ " same design") (a.O.outcome = b.O.outcome);
        expect (layer ^ " same solver totals") (a.O.solve_totals = b.O.solve_totals);
        expect (layer ^ " same pruning") (a.O.pruned = b.O.pruned);
        expect (layer ^ " same counts")
          (a.O.choices_enumerated = b.O.choices_enumerated && a.O.choices_solved = b.O.choices_solved)
      | _ -> expect (layer ^ " both answer") false)
    [
      ("yolo-11", config, tech, codesign, F.Energy);
      ("resnet-8", config, tech, codesign, F.Energy);
      ( "resnet-2",
        { config with O.max_choices = 2 },
        Archspec.Technology.scale_to_node tech ~node_nm:28.0,
        F.Fixed Archspec.Arch.eyeriss,
        F.Delay );
      ("alexnet-2", { config with O.max_choices = 2 }, tech, codesign, F.Edp);
    ];
  expect "refuses other configurations"
    (match
       Perfbench.Replay.run ~timer ~config:{ config with O.dedupe = false } tech codesign F.Energy
         (Workload.Conv.to_nest (Workload.Zoo.find "yolo-11"))
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  test_stats ();
  test_allocate ();
  test_draw ();
  test_replay ();
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
