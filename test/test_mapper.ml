(* Tests for the search-based mapper baseline: random-mapping validity,
   search termination knobs, and optimality on an exhaustively enumerable
   space. *)

module S = Mapper.Search
module Arch = Archspec.Arch
module Mapping = Mapspace.Mapping

let tech = Archspec.Technology.table3

let tiny_nest = Workload.Matmul.nest ~name:"tiny" ~ni:4 ~nj:4 ~nk:2 ()

let tiny_arch = Arch.make ~name:"tiny" ~pes:4 ~registers:16 ~sram_words:64

(* The searches below score delay under the aggregate model. *)
let comm = Archspec.Link.Overlapped

let test_random_mapping_valid () =
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 50 do
    let m = S.random_mapping rng tiny_nest in
    Alcotest.(check (result unit string)) "valid" (Ok ()) (Mapping.validate tiny_nest m)
  done

let test_search_deterministic () =
  let config = { S.max_trials = 500; victory_condition = 500; seed = 3 } in
  let r1 = S.search ~config ~comm tech tiny_arch S.Min_energy tiny_nest in
  let r2 = S.search ~config ~comm tech tiny_arch S.Min_energy tiny_nest in
  match (r1.S.best, r2.S.best) with
  | Some (_, e1), Some (_, e2) ->
    Alcotest.(check (float 0.0))
      "same result" e1.Accmodel.Evaluate.energy_pj e2.Accmodel.Evaluate.energy_pj
  | _ -> Alcotest.fail "search found nothing"

let test_trial_budget () =
  let config = { S.max_trials = 37; victory_condition = 1000; seed = 1 } in
  let r = S.search ~config ~comm tech tiny_arch S.Min_energy tiny_nest in
  Alcotest.(check int) "stops at budget" 37 r.S.trials

let test_victory_condition () =
  let config = { S.max_trials = 100000; victory_condition = 50; seed = 1 } in
  let r = S.search ~config ~comm tech tiny_arch S.Min_energy tiny_nest in
  (* The search must stop well before the trial budget. *)
  Alcotest.(check bool)
    (Printf.sprintf "stopped early (%d trials)" r.S.trials)
    true (r.S.trials < 100000)

let test_exhaustive_is_lower_bound () =
  let exact =
    match S.exhaustive ~comm tech tiny_arch S.Min_energy tiny_nest ~max_points:2_000_000 with
    | Some (_, e) -> e.Accmodel.Evaluate.energy_pj
    | None -> Alcotest.fail "exhaustive found nothing"
  in
  let config = { S.max_trials = 4000; victory_condition = 4000; seed = 5 } in
  let r = S.search ~config ~comm tech tiny_arch S.Min_energy tiny_nest in
  match r.S.best with
  | None -> Alcotest.fail "search found nothing"
  | Some (_, e) ->
    let found = e.Accmodel.Evaluate.energy_pj in
    Alcotest.(check bool)
      (Printf.sprintf "exhaustive %g <= search %g" exact found)
      true
      (exact <= found +. 1e-9);
    (* With thousands of trials on a tiny space, the search should land
       close to the optimum (deterministic given the seed). *)
    Alcotest.(check bool)
      (Printf.sprintf "search within 10%% (%g vs %g)" found exact)
      true
      (found <= exact *. 1.10)

let test_exhaustive_space_guard () =
  let nest = Workload.Conv.to_nest (Workload.Conv.make ~name:"big" ~k:64 ~c:64 ~hw:56 ~rs:3 ()) in
  match S.exhaustive ~comm tech tiny_arch S.Min_energy nest ~max_points:1000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected the space guard to trip"

let test_delay_criterion () =
  (* Delay is scored under the model passed in: only [Comm_aware]
     reports per-link occupancies. *)
  let config = { S.max_trials = 2000; victory_condition = 2000; seed = 9 } in
  List.iter
    (fun (comm, links) ->
      let r = S.search ~config ~comm tech tiny_arch S.Min_delay tiny_nest in
      match r.S.best with
      | None -> Alcotest.fail "search found nothing"
      | Some (_, e) ->
        Alcotest.(check bool)
          "score is cycles" true
          (S.score S.Min_delay e = e.Accmodel.Evaluate.cycles);
        Alcotest.(check bool) "links reported" links (e.Accmodel.Evaluate.comm <> []))
    [ (comm, false); (Archspec.Link.Comm_aware, true) ]

let test_parallel_search () =
  let config = { S.max_trials = 2000; victory_condition = 2000; seed = 11 } in
  let parallel = S.search_parallel ~config ~domains:4 ~comm tech tiny_arch S.Min_energy tiny_nest in
  Alcotest.(check int) "budget split exactly" 2000 parallel.S.trials;
  (* Deterministic for a fixed (config, domains) pair. *)
  let again = S.search_parallel ~config ~domains:4 ~comm tech tiny_arch S.Min_energy tiny_nest in
  (match (parallel.S.best, again.S.best) with
  | Some (_, a), Some (_, b) ->
    Alcotest.(check (float 0.0))
      "deterministic" a.Accmodel.Evaluate.energy_pj b.Accmodel.Evaluate.energy_pj
  | _ -> Alcotest.fail "parallel search found nothing");
  (* One domain degrades to the sequential search. *)
  let seq = S.search ~config ~comm tech tiny_arch S.Min_energy tiny_nest in
  let one = S.search_parallel ~config ~domains:1 ~comm tech tiny_arch S.Min_energy tiny_nest in
  match (seq.S.best, one.S.best) with
  | Some (_, a), Some (_, b) ->
    Alcotest.(check (float 0.0))
      "domains=1 = sequential" a.Accmodel.Evaluate.energy_pj b.Accmodel.Evaluate.energy_pj
  | _ -> Alcotest.fail "searches found nothing"

(* Degenerate splits: with more domains than trials, the per-stream
   budgets used to collapse to zero trials and victory shares of one,
   changing termination semantics versus the sequential path.  The
   domain count is clamped to the budget, so tiny budgets must behave
   exactly like the sequential search, and the total never exceeds the
   budget. *)
let test_parallel_tiny_budgets () =
  List.iter
    (fun max_trials ->
      let config = { S.max_trials; victory_condition = 100; seed = 7 } in
      let seq = S.search ~config ~comm tech tiny_arch S.Min_energy tiny_nest in
      let par =
        S.search_parallel ~config ~domains:8 ~comm tech tiny_arch S.Min_energy tiny_nest
      in
      Alcotest.(check int)
        (Printf.sprintf "budget %d: same trial count" max_trials)
        seq.S.trials par.S.trials;
      Alcotest.(check int)
        (Printf.sprintf "budget %d: same valid count" max_trials)
        seq.S.valid_trials par.S.valid_trials;
      match (seq.S.best, par.S.best) with
      | None, None -> ()
      | Some (_, a), Some (_, b) ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "budget %d: same best" max_trials)
          a.Accmodel.Evaluate.energy_pj b.Accmodel.Evaluate.energy_pj
      | _ -> Alcotest.failf "budget %d: best presence differs" max_trials)
    [ 0; 1 ];
  let config = { S.max_trials = 5; victory_condition = 100; seed = 7 } in
  let par = S.search_parallel ~config ~domains:8 ~comm tech tiny_arch S.Min_energy tiny_nest in
  Alcotest.(check bool)
    (Printf.sprintf "5-trial budget spends %d <= 5" par.S.trials)
    true (par.S.trials <= 5)

(* --- grid-search co-design baseline --- *)

let test_grid_architectures () =
  let config =
    {
      Mapper.Grid.default_config with
      Mapper.Grid.min_regs = 8;
      max_regs = 32;
      min_sram = 1024;
      max_sram = 4096;
    }
  in
  let archs = Mapper.Grid.architectures tech config ~area_budget:500000.0 in
  (* 3 register sizes x 3 SRAM sizes, all affordable at this budget. *)
  Alcotest.(check int) "grid size" 9 (List.length archs);
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "%s within budget" a.Archspec.Arch.arch_name)
        true
        (Archspec.Arch.area tech a <= 500000.0);
      (* The PE count is maximal: one more PE would not fit. *)
      let one_more =
        Archspec.Arch.make ~name:"x" ~pes:(a.Archspec.Arch.pe_count + 1)
          ~registers:a.Archspec.Arch.registers_per_pe
          ~sram_words:a.Archspec.Arch.sram_words
      in
      Alcotest.(check bool) "PE count maximal" true
        (Archspec.Arch.area tech one_more > 500000.0))
    archs

let test_grid_budget_filter () =
  (* A budget below one PE + minimal SRAM leaves an empty grid. *)
  let config =
    { Mapper.Grid.default_config with Mapper.Grid.min_sram = 65536; max_sram = 65536 }
  in
  let archs = Mapper.Grid.architectures tech config ~area_budget:100000.0 in
  Alcotest.(check int) "empty" 0 (List.length archs)

let test_grid_search_runs () =
  let nest = Workload.Matmul.nest ~ni:8 ~nj:8 ~nk:8 () in
  let config =
    {
      Mapper.Grid.trials_per_point = 300;
      seed = 3;
      min_regs = 8;
      max_regs = 32;
      min_sram = 256;
      max_sram = 1024;
    }
  in
  let r = Mapper.Grid.search ~config ~comm tech ~area_budget:200000.0 S.Min_energy nest in
  Alcotest.(check bool) "some points" true (List.length r.Mapper.Grid.points > 0);
  Alcotest.(check bool)
    "trials accounted" true
    (r.Mapper.Grid.total_trials
    = 300 * List.length r.Mapper.Grid.points);
  match r.Mapper.Grid.winner with
  | None -> Alcotest.fail "no winner"
  | Some { Mapper.Grid.best = Some (_, m); arch; _ } ->
    (* The winner's score is minimal across all points. *)
    List.iter
      (fun (p : Mapper.Grid.point) ->
        match p.Mapper.Grid.best with
        | Some (_, m') ->
          Alcotest.(check bool) "winner minimal" true
            (m.Accmodel.Evaluate.energy_pj <= m'.Accmodel.Evaluate.energy_pj +. 1e-9)
        | None -> ())
      r.Mapper.Grid.points;
    Alcotest.(check bool) "winner within budget" true
      (Archspec.Arch.area tech arch <= 200000.0)
  | Some { Mapper.Grid.best = None; _ } -> Alcotest.fail "winner without mapping"

let () =
  Alcotest.run "mapper"
    [
      ( "search",
        [
          Alcotest.test_case "random mappings valid" `Quick test_random_mapping_valid;
          Alcotest.test_case "deterministic" `Quick test_search_deterministic;
          Alcotest.test_case "trial budget" `Quick test_trial_budget;
          Alcotest.test_case "victory condition" `Quick test_victory_condition;
          Alcotest.test_case "exhaustive lower bound" `Slow test_exhaustive_is_lower_bound;
          Alcotest.test_case "space guard" `Quick test_exhaustive_space_guard;
          Alcotest.test_case "delay criterion" `Quick test_delay_criterion;
          Alcotest.test_case "parallel search" `Quick test_parallel_search;
          Alcotest.test_case "parallel tiny budgets" `Quick test_parallel_tiny_budgets;
        ] );
      ( "grid",
        [
          Alcotest.test_case "architecture grid" `Quick test_grid_architectures;
          Alcotest.test_case "budget filter" `Quick test_grid_budget_filter;
          Alcotest.test_case "search" `Quick test_grid_search_runs;
        ] );
    ]
