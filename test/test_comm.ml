(* Communication-aware delay model tests (DESIGN §16).

   The analytical evaluator derives per-link occupancies from the
   closed-form access counts; the timed refsim re-derives them by
   literally walking the copy schedule and charging every transfer to
   its link with burst quantization.  The two share only the Link
   arithmetic in archspec, so bit-for-bit agreement in uncontended mode
   is a meaningful check of both sides' word/burst accounting. *)

module Nest = Workload.Nest
module Conv = Workload.Conv
module Mapping = Mapspace.Mapping
module Arch = Archspec.Arch
module Tech = Archspec.Technology
module Link = Archspec.Link
module Evaluate = Accmodel.Evaluate
module Sim = Refsim.Simulate
module Pl = Thistle.Pipeline
module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize

(* Twelve layers spanning both networks, as in the differential test. *)
let layers =
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  take 6 Workload.Zoo.yolo9000 @ take 6 Workload.Zoo.resnet18

let () = assert (List.length layers >= 12)

(* An architecture large enough that no zoo tiling below trips the
   capacity checks: the tests here are about timing, not feasibility. *)
let big_arch =
  Arch.make ~name:"roomy" ~pes:(1 lsl 16) ~registers:(1 lsl 40)
    ~sram_words:(1 lsl 45)

(* --- small-tiling construction (shared with test_differential) --- *)

let divisor_of n ~limit =
  let rec go d =
    if d < 2 then 1 else if d <= limit && n mod d = 0 then d else go (d - 1)
  in
  go 4

type split = { reg : int; pe : int; spatial : int; dram : int }

let split_dims ?(budget = 4000) ~pick nest =
  let budget = ref budget in
  let take n =
    let d = pick n ~limit:(Int.min 4 !budget) in
    budget := !budget / d;
    d
  in
  List.map
    (fun d ->
      let e = Nest.extent nest d in
      let pe = take e in
      let dram = take (e / pe) in
      let spatial = take (e / pe / dram) in
      (d, { reg = e / pe / dram / spatial; pe; spatial; dram }))
    (Nest.dim_names nest)

let full_perm restricted dims =
  restricted @ List.filter (fun d -> not (List.mem d restricted)) dims

let mapping_of_splits nest splits ~pe_order ~dram_order =
  let dims = Nest.dim_names nest in
  let factors select = List.map (fun (d, s) -> (d, select s)) splits in
  Mapping.canonical
    ~reg:(factors (fun s -> s.reg), full_perm [] dims)
    ~pe:(factors (fun s -> s.pe), full_perm pe_order dims)
    ~spatial:(factors (fun s -> s.spatial))
    ~dram:(factors (fun s -> s.dram), full_perm dram_order dims)

let fixed_mapping nest =
  let splits = split_dims ~pick:(fun n ~limit -> divisor_of n ~limit) nest in
  let dims = Nest.dim_names nest in
  mapping_of_splits nest splits ~pe_order:dims ~dram_order:(List.rev dims)

let random_mapping rng nest =
  let pick n ~limit =
    let options =
      List.filter (fun d -> d <= limit && n mod d = 0) [ 1; 2; 3; 4 ]
    in
    List.nth options (Random.State.int rng (List.length options))
  in
  let splits = split_dims ~pick nest in
  let shuffle xs =
    List.map snd
      (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) xs))
  in
  let dims = Nest.dim_names nest in
  mapping_of_splits nest splits ~pe_order:(shuffle dims)
    ~dram_order:(shuffle dims)

(* --- analytical model vs timed replay, bit for bit --- *)

let bits = Int64.bits_of_float

let check_bits label expected actual =
  Alcotest.(check int64) label (bits expected) (bits actual)

(* Uncontended: cycles, binding and every channel's words/bursts/busy
   must agree exactly — no epsilon. *)
let check_agreement ~label tech nest mapping =
  let m =
    match Evaluate.evaluate ~comm:Link.Comm_aware tech big_arch nest mapping with
    | Ok m -> m
    | Error msg -> Alcotest.failf "%s: evaluate failed: %s" label msg
  in
  let t =
    match Sim.timed tech nest mapping with
    | Ok t -> t
    | Error msg -> Alcotest.failf "%s: timed refsim failed: %s" label msg
  in
  check_bits (label ^ ": cycles") m.Evaluate.cycles t.Sim.cycles;
  Alcotest.(check string) (label ^ ": binding") m.Evaluate.binding t.Sim.binding;
  Alcotest.(check (list string))
    (label ^ ": channel order")
    (List.map (fun (o : Link.occupancy) -> o.Link.chan) m.Evaluate.comm)
    (List.map (fun (o : Link.occupancy) -> o.Link.chan) t.Sim.channels);
  List.iter2
    (fun (a : Link.occupancy) (b : Link.occupancy) ->
      let l what = Printf.sprintf "%s: %s %s" label a.Link.chan what in
      check_bits (l "words") a.Link.words b.Link.words;
      check_bits (l "bursts") a.Link.bursts b.Link.bursts;
      check_bits (l "busy") a.Link.busy b.Link.busy)
    m.Evaluate.comm t.Sim.channels;
  (m, t)

(* Contention can only serialize, never accelerate. *)
let check_contention_monotone ~label tech nest mapping =
  let cycles_of = function
    | Ok (m : Evaluate.t) -> m.Evaluate.cycles
    | Error msg -> Alcotest.failf "%s: evaluate failed: %s" label msg
  in
  let base =
    cycles_of (Evaluate.evaluate ~comm:Link.Comm_aware tech big_arch nest mapping)
  in
  let contended =
    cycles_of
      (Evaluate.evaluate ~comm:Link.Comm_aware ~contention:true tech big_arch
         nest mapping)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: contention %.17g >= uncontended %.17g" label contended
       base)
    true (contended >= base);
  let timed =
    match Sim.timed ~contention:true tech nest mapping with
    | Ok t -> t
    | Error msg -> Alcotest.failf "%s: contended refsim failed: %s" label msg
  in
  check_bits (label ^ ": contended refsim agrees") contended timed.Sim.cycles

let test_zoo_agreement () =
  List.iter
    (fun layer ->
      let nest = Conv.to_nest layer in
      let mapping = fixed_mapping nest in
      List.iter
        (fun (tech_name, tech) ->
          let label =
            Printf.sprintf "%s/%s" layer.Conv.layer_name tech_name
          in
          ignore (check_agreement ~label tech nest mapping);
          check_contention_monotone ~label tech nest mapping)
        [ ("eyeriss", Tech.table3); ("edge", Tech.edge) ])
    layers

let prop_random_agreement =
  let gen = QCheck2.Gen.int_range 0 100000 in
  QCheck2.Test.make ~name:"timed refsim = analytical on random zoo tilings"
    ~count:40 gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let layer = List.nth layers (Random.State.int rng (List.length layers)) in
      let nest = Conv.to_nest layer in
      let mapping = random_mapping rng nest in
      let tech = if Random.State.bool rng then Tech.table3 else Tech.edge in
      let label = Printf.sprintf "%s/seed=%d" layer.Conv.layer_name seed in
      ignore (check_agreement ~label tech nest mapping);
      check_contention_monotone ~label tech nest mapping;
      true)

(* --- the two lowerings must actually disagree somewhere --- *)

(* Collapse a binding resource to the coarse class the overlapped model
   can express: both DRAM directions contend for the aggregate DRAM
   interface, the NoC directions and the register stream for the
   aggregate SRAM port. *)
let binding_class = function
  | "compute" -> `Compute
  | "dram" | "dram-rd" | "dram-wr" -> `Dram
  | "sram" | "noc-rd" | "noc-wr" | "reg" -> `Sram
  | "bus" -> `Bus
  | other -> Alcotest.failf "unexpected binding resource %S" other

(* On the bandwidth-starved edge point the burst overheads shift which
   resource binds: at least one zoo layer must flip class between the
   two lowerings, and on every flipped layer the timed replay must
   confirm the comm-aware verdict exactly. *)
let test_edge_models_disagree () =
  let tech = Tech.edge in
  let disagreements = ref 0 in
  List.iter
    (fun layer ->
      let nest = Conv.to_nest layer in
      let mapping = fixed_mapping nest in
      let overlapped =
        match
          Evaluate.evaluate ~comm:Link.Overlapped tech big_arch nest mapping
        with
        | Ok m -> m
        | Error msg ->
          Alcotest.failf "%s: overlapped evaluate failed: %s"
            layer.Conv.layer_name msg
      in
      Alcotest.(check (list string))
        (layer.Conv.layer_name ^ ": overlapped reports no channels")
        []
        (List.map (fun (o : Link.occupancy) -> o.Link.chan) overlapped.Evaluate.comm);
      let comm_aware, timed =
        check_agreement ~label:(layer.Conv.layer_name ^ "/edge") tech nest
          mapping
      in
      Alcotest.(check string)
        (layer.Conv.layer_name ^ ": refsim confirms binding")
        comm_aware.Evaluate.binding timed.Sim.binding;
      if
        binding_class overlapped.Evaluate.binding
        <> binding_class comm_aware.Evaluate.binding
      then incr disagreements)
    layers;
  Alcotest.(check bool)
    (Printf.sprintf "models disagree on >= 1 zoo layer (got %d)" !disagreements)
    true (!disagreements >= 1)

(* The overlapped model is the historical aggregate one: no per-link
   channels, and the cycles are the largest aggregate component. *)
let test_overlapped_is_aggregate () =
  let layer = List.hd layers in
  let nest = Conv.to_nest layer in
  let mapping = fixed_mapping nest in
  let m =
    Result.get_ok
      (Evaluate.evaluate ~comm:Link.Overlapped Tech.table3 big_arch nest mapping)
  in
  Alcotest.(check int) "no channels" 0 (List.length m.Evaluate.comm);
  check_bits "overlapped cycles = max of the aggregate components"
    (Float.max m.Evaluate.compute_cycles
       (Float.max m.Evaluate.sram_cycles m.Evaluate.dram_cycles))
    m.Evaluate.cycles

(* --- jobs-independence of both comm models (§9 contract) --- *)

let small_layers =
  List.map Workload.Conv.to_nest
    [
      Workload.Conv.make ~name:"c-small" ~k:8 ~c:8 ~hw:8 ~rs:3 ();
      Workload.Conv.make ~name:"c-1x1" ~k:16 ~c:32 ~hw:16 ~rs:1 ();
    ]

let fingerprint (e : Pl.entry) =
  let name = Workload.Nest.name e.Pl.nest in
  match e.Pl.result with
  | Error msg -> Printf.sprintf "%s: error: %s" name msg
  | Ok r ->
    let o = r.O.outcome in
    Format.asprintf "%s: arch=%s mapping=(%a) energy=%Lx cycles=%Lx binding=%s"
      name o.I.arch.Arch.arch_name Mapping.pp o.I.mapping
      (bits o.I.metrics.Evaluate.energy_pj)
      (bits o.I.metrics.Evaluate.cycles)
      o.I.metrics.Evaluate.binding

let run_pipeline ~comm ~contention ~jobs =
  let config =
    {
      O.default_config with
      O.max_choices = 8;
      top_choices = 1;
      comm;
      contention;
      jobs;
    }
  in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let entries =
    Pl.run_layers ~config Tech.edge
      (F.Codesign { area_budget = 6.0e5 })
      F.Delay small_layers
  in
  Obs.Metrics.disable ();
  let counters = Obs.Metrics.counters (Obs.Metrics.snapshot ()) in
  Obs.Metrics.reset ();
  (List.map fingerprint entries, counters)

let test_jobs_independent () =
  List.iter
    (fun (comm, contention) ->
      let label =
        Printf.sprintf "%s%s" (Link.comm_model_name comm)
          (if contention then "+contention" else "")
      in
      let fps_seq, counters_seq = run_pipeline ~comm ~contention ~jobs:1 in
      let fps_par, counters_par = run_pipeline ~comm ~contention ~jobs:4 in
      Alcotest.(check (list string)) (label ^ ": results") fps_seq fps_par;
      Alcotest.(check (list (pair string int)))
        (label ^ ": counters")
        counters_seq counters_par;
      let value name =
        match List.assoc_opt name counters_seq with Some v -> v | None -> 0
      in
      match comm with
      | Link.Comm_aware ->
        Alcotest.(check bool)
          (label ^ ": comm delay constraints were lowered")
          true
          (value "comm.delay_constraints" > 0)
      | Link.Overlapped ->
        Alcotest.(check int)
          (label ^ ": overlapped lowers no comm constraints")
          0
          (value "comm.delay_constraints"))
    [
      (Link.Comm_aware, false);
      (Link.Comm_aware, true);
      (Link.Overlapped, false);
    ]

let () =
  Alcotest.run "comm"
    [
      ( "timed refsim vs analytical",
        [
          Alcotest.test_case "zoo sweep, both technologies" `Quick
            test_zoo_agreement;
          QCheck_alcotest.to_alcotest prop_random_agreement;
        ] );
      ( "model disagreement",
        [
          Alcotest.test_case "edge point flips the binding class" `Quick
            test_edge_models_disagree;
          Alcotest.test_case "overlapped is the aggregate model" `Quick
            test_overlapped_is_aggregate;
        ] );
      ( "determinism",
        [ Alcotest.test_case "jobs-independent" `Quick test_jobs_independent ] );
    ]
