(* Tests for the accelerator model: access counts against the paper's
   closed-form matmul volumes (Eq. 1/2), cross-validation against the
   brute-force reference simulator, and the energy/delay accounting. *)

module Nest = Workload.Nest
module Mapping = Mapspace.Mapping
module Counts = Accmodel.Counts
module Evaluate = Accmodel.Evaluate
module Arch = Archspec.Arch
module Tech = Archspec.Technology

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs b)

let check_float ?eps name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %g, got %g" name expected actual)
    true
    (approx ?eps expected actual)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* The paper's Fig. 1 structure: N = 64 per dim, register tiles R_d,
   per-PE tiles Q_d, SRAM tiles S_d; SRAM-level permutation <i,k,j>,
   register-level permutation <i,j,k>; P_k = 1. *)
let paper_matmul () =
  let nest = Workload.Matmul.nest ~ni:64 ~nj:64 ~nk:64 () in
  (* R = (2,2,4), Q = (8,8,8), S = (16,32,8), N = 64. *)
  let mapping =
    Mapping.canonical
      ~reg:([ ("i", 2); ("j", 2); ("k", 4) ], [ "i"; "j"; "k" ])
      ~pe:([ ("i", 4); ("j", 4); ("k", 2) ], [ "i"; "j"; "k" ])
      ~spatial:[ ("i", 2); ("j", 4) ]
      ~dram:([ ("i", 4); ("j", 2); ("k", 8) ], [ "i"; "k"; "j" ])
  in
  (nest, mapping)

let test_matmul_dram_volumes () =
  let nest, mapping = paper_matmul () in
  let counts = ok (Counts.compute nest mapping) in
  let n = 64.0 in
  let s_i = 16.0 and s_k = 8.0 in
  let fill name =
    let tc = List.find (fun t -> t.Counts.tensor = name) counts.Counts.per_tensor in
    List.assoc Mapspace.Level.dram_temporal_level tc.Counts.fills
  in
  (* Eq. 1: A moves N_i N_k, B moves N^3 / S_i, C moves N^3 / S_k. *)
  check_float "A" (n *. n) (fill "A");
  check_float "B" (n *. n *. n /. s_i) (fill "B");
  check_float "C" (n *. n *. n /. s_k) (fill "C")

let test_matmul_sram_volumes () =
  let nest, mapping = paper_matmul () in
  let counts = ok (Counts.compute nest mapping) in
  let n = 64.0 in
  let r_i = 2.0 and r_j = 2.0 in
  let p_i = 2.0 and p_j = 4.0 in
  let s_k = 8.0 in
  let fill name =
    let tc = List.find (fun t -> t.Counts.tensor = name) counts.Counts.per_tensor in
    List.assoc Mapspace.Level.pe_temporal_level tc.Counts.fills
  in
  (* Eq. 2 with register-level permutation <i,j,k>. *)
  check_float "A" (n ** 3.0 /. (r_j *. p_j)) (fill "A");
  check_float "B" (n ** 3.0 /. (r_i *. p_i)) (fill "B");
  check_float "C" (n ** 3.0 /. s_k) (fill "C")

let test_matmul_footprints () =
  let nest, mapping = paper_matmul () in
  let counts = ok (Counts.compute nest mapping) in
  (* Register tile: R_i R_j + R_i R_k + R_j R_k = 4 + 8 + 8. *)
  check_float "register words" 20.0 (Counts.reg_words_per_pe counts);
  (* SRAM tile: S_i S_j + S_i S_k + S_j S_k = 512 + 128 + 256. *)
  check_float "sram words" 896.0 (Counts.sram_words_used counts);
  Alcotest.(check int) "PEs" 8 counts.Counts.pes_used;
  check_float "macs" (64.0 ** 3.0) counts.Counts.macs

let test_rw_doubling () =
  let nest, mapping = paper_matmul () in
  let counts = ok (Counts.compute nest mapping) in
  (* Only C is read-write: the drain side equals its fill volume. *)
  let c_fill =
    let tc = List.find (fun t -> t.Counts.tensor = "C") counts.Counts.per_tensor in
    List.assoc Mapspace.Level.pe_temporal_level tc.Counts.fills
  in
  check_float "reg_to_sram = C fill" c_fill (Counts.reg_to_sram counts);
  Alcotest.(check bool)
    "sram_to_reg includes all tensors" true
    (Counts.sram_to_reg counts > Counts.reg_to_sram counts)

(* Trip-count-1 loops do not stop hoisting: placing a factor-1 present
   loop innermost must not change the counted volume. *)
let test_unit_loops_ignored () =
  let nest = Workload.Matmul.nest ~ni:8 ~nj:8 ~nk:8 () in
  let base_factors = [ ("i", 2); ("j", 2) ] in
  let with_perm perm =
    Mapping.canonical
      ~reg:([ ("i", 2); ("j", 2); ("k", 8) ], [ "i"; "j"; "k" ])
      ~pe:(base_factors, perm)
      ~spatial:[]
      ~dram:([ ("i", 2); ("j", 2) ], [ "i"; "j"; "k" ])
  in
  (* k has factor 1 at the PE level; its position must not matter. *)
  let counts_outer = ok (Counts.compute nest (with_perm [ "k"; "i"; "j" ])) in
  let counts_inner = ok (Counts.compute nest (with_perm [ "i"; "j"; "k" ])) in
  check_float "volumes equal"
    (Counts.sram_to_reg counts_outer)
    (Counts.sram_to_reg counts_inner)

(* Conv halo: the In tensor's fills must use exact halo extents. *)
let test_conv_halo_exact () =
  let conv = Workload.Conv.make ~name:"t" ~k:2 ~c:2 ~hw:8 ~rs:3 () in
  let nest = Workload.Conv.to_nest conv in
  let dims = Nest.dim_names nest in
  let mapping =
    Mapping.canonical
      ~reg:([ ("r", 3); ("s", 3); ("h", 2); ("w", 2) ], dims)
      ~pe:([ ("k", 2); ("c", 2); ("h", 2) ], [ "k"; "c"; "h"; "n"; "r"; "s"; "w" ])
      ~spatial:[ ("w", 2) ]
      ~dram:([ ("h", 2); ("w", 2) ], dims)
  in
  let counts = ok (Counts.compute nest mapping) in
  let inp = List.find (fun t -> t.Counts.tensor = "In") counts.Counts.per_tensor in
  (* Register tile of In: 1 * 1 * (2 + 3 - 1) * (2 + 3 - 1) = 16 words. *)
  check_float "In register tile" 16.0 (List.assoc 1 inp.Counts.footprints);
  (* PE-level fills: the innermost present loop of the PE permutation is h
     (factor 2), so one union copy is (4+3-1) * (2+3-1) = 24 words; the
     outer loops c and k multiply (x4); spatial w is present (x2); DRAM
     h and w multiply (x4): 24 * 4 * 2 * 4 = 768. *)
  check_float "In fills" 768.0 (List.assoc 1 inp.Counts.fills)

(* --- cross-validation against the reference simulator --- *)

let small_nests =
  [
    Workload.Matmul.nest ~name:"mm8" ~ni:8 ~nj:4 ~nk:8 ();
    Workload.Matmul.nest ~name:"mm12" ~ni:12 ~nj:6 ~nk:4 ();
    Workload.Conv.to_nest (Workload.Conv.make ~name:"conv-s1" ~k:4 ~c:2 ~hw:6 ~rs:3 ());
    Workload.Conv.to_nest
      (Workload.Conv.make ~name:"conv-s2" ~k:2 ~c:3 ~hw:8 ~rs:3 ~stride:2 ());
    Workload.Conv.to_nest
      (Workload.Conv.make ~name:"conv-1x1" ~k:4 ~c:4 ~hw:4 ~rs:1 ~stride:1 ());
  ]

let prop_matches_refsim =
  let gen =
    QCheck2.Gen.(pair (int_range 0 (List.length small_nests - 1)) (int_range 0 5000))
  in
  QCheck2.Test.make ~name:"Counts.compute = Refsim.fills on random mappings" ~count:150
    gen
    (fun (nest_idx, seed) ->
      let nest = List.nth small_nests nest_idx in
      let rng = Random.State.make [| seed |] in
      let mapping = Mapper.Search.random_mapping rng nest in
      let counts = Result.get_ok (Counts.compute nest mapping) in
      let reports = Result.get_ok (Refsim.Simulate.fills nest mapping) in
      List.for_all
        (fun (r : Refsim.Simulate.fill_report) ->
          let tc =
            List.find
              (fun t -> t.Counts.tensor = r.Refsim.Simulate.tensor)
              counts.Counts.per_tensor
          in
          let analytic = List.assoc r.Refsim.Simulate.level tc.Counts.fills in
          approx ~eps:1e-9 analytic r.Refsim.Simulate.words)
        reports)

(* Deeper hierarchies: the counting rules are level-generic, so a 5-level
   mapping (two temporal levels above the spatial one, as in the paper's
   Fig. 3(e)) must also agree with the reference simulator. *)
let prop_five_levels_match_refsim =
  let gen = QCheck2.Gen.int_range 0 5000 in
  QCheck2.Test.make ~name:"5-level Counts = Refsim" ~count:100 gen (fun seed ->
      let nest = Workload.Matmul.nest ~ni:16 ~nj:8 ~nk:16 () in
      let rng = Random.State.make [| seed |] in
      let dims = Nest.dim_names nest in
      let shuffle xs =
        List.map snd
          (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) xs))
      in
      let chains =
        List.map
          (fun d ->
            ( d,
              Mapspace.Divisors.random_factorization rng (Nest.extent nest d) ~parts:5 ))
          dims
      in
      let factors_at i = List.map (fun (d, chain) -> (d, List.nth chain i)) chains in
      let level kind i perm =
        { Mapping.kind; factors = factors_at i; perm }
      in
      let mapping =
        Mapping.make
          [
            level Mapspace.Level.Temporal 0 (shuffle dims);
            level Mapspace.Level.Temporal 1 (shuffle dims);
            level Mapspace.Level.Spatial 2 [];
            level Mapspace.Level.Temporal 3 (shuffle dims);
            level Mapspace.Level.Temporal 4 (shuffle dims);
          ]
      in
      let counts = Result.get_ok (Counts.compute nest mapping) in
      let reports = Result.get_ok (Refsim.Simulate.fills nest mapping) in
      List.for_all
        (fun (r : Refsim.Simulate.fill_report) ->
          let tc =
            List.find
              (fun t -> t.Counts.tensor = r.Refsim.Simulate.tensor)
              counts.Counts.per_tensor
          in
          approx ~eps:1e-9
            (List.assoc r.Refsim.Simulate.level tc.Counts.fills)
            r.Refsim.Simulate.words)
        reports)

(* --- energy / delay accounting --- *)

let tech = Tech.table3

let test_energy_formula () =
  let nest, mapping = paper_matmul () in
  let arch = Arch.make ~name:"tiny" ~pes:16 ~registers:32 ~sram_words:1024 in
  let m = ok (Evaluate.evaluate ~comm:Archspec.Link.Overlapped tech arch nest mapping) in
  let counts = m.Evaluate.counts in
  let eps_r = Arch.register_energy tech arch in
  let eps_s = Arch.sram_energy tech arch in
  let s2r = Counts.sram_to_reg counts and r2s = Counts.reg_to_sram counts in
  let d2s = Counts.dram_to_sram counts and s2d = Counts.sram_to_dram counts in
  let expected =
    (((4.0 *. eps_r) +. tech.Tech.energy_mac) *. counts.Counts.macs)
    +. (eps_r *. (s2r +. r2s))
    +. (eps_s *. (s2r +. r2s +. d2s +. s2d))
    +. (tech.Tech.energy_dram *. (d2s +. s2d))
  in
  check_float "energy" expected m.Evaluate.energy_pj;
  check_float "energy/mac" (expected /. counts.Counts.macs) m.Evaluate.energy_per_mac;
  (* Delay: max of the three component delays; IPC bounded by PEs used. *)
  check_float "cycles"
    (Float.max m.Evaluate.compute_cycles
       (Float.max m.Evaluate.sram_cycles m.Evaluate.dram_cycles))
    m.Evaluate.cycles;
  Alcotest.(check bool)
    "ipc <= PEs" true
    (m.Evaluate.ipc <= float_of_int counts.Counts.pes_used +. 1e-9)

let test_capacity_rejection () =
  let nest, mapping = paper_matmul () in
  (* Register tile needs 20 words; 16 must be rejected. *)
  let tiny_regs = Arch.make ~name:"r16" ~pes:16 ~registers:16 ~sram_words:4096 in
  (match Evaluate.evaluate ~comm:Archspec.Link.Overlapped tech tiny_regs nest mapping with
  | Error msg -> Alcotest.(check bool) "has message" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected register capacity rejection");
  (* SRAM tile needs 896 words. *)
  let tiny_sram = Arch.make ~name:"s512" ~pes:16 ~registers:32 ~sram_words:512 in
  (match Evaluate.evaluate ~comm:Archspec.Link.Overlapped tech tiny_sram nest mapping with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected SRAM capacity rejection");
  (* Mapping uses 8 PEs. *)
  let tiny_pes = Arch.make ~name:"p4" ~pes:4 ~registers:32 ~sram_words:4096 in
  match Evaluate.evaluate ~comm:Archspec.Link.Overlapped tech tiny_pes nest mapping with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected PE-count rejection"

(* A nest whose extent product overflows to infinity used to reach the
   unguarded [energy / macs] and [macs / cycles] divisions and return
   NaN/inf metrics as [Ok]; the evaluator must refuse it instead. *)
let test_degenerate_nest_rejected () =
  let dims =
    List.init 18 (fun i ->
        { Nest.dim_name = Printf.sprintf "d%d" i; extent = 1 lsl 60 })
  in
  let tensors =
    [
      {
        Nest.tensor_name = "T";
        projections = [ [ { Nest.stride = 1; iter = "d0" } ] ];
        read_write = false;
      };
    ]
  in
  let nest = Nest.make ~name:"overflow" ~dims ~tensors in
  Alcotest.(check bool) "ops overflow to inf" false (Float.is_finite (Nest.ops nest));
  let ones = List.map (fun d -> (d.Nest.dim_name, 1)) dims in
  let full = List.map (fun d -> (d.Nest.dim_name, d.Nest.extent)) dims in
  let perm = Nest.dim_names nest in
  (* All the iteration lives at the DRAM level, so every on-chip tile is
     one word and the capacity checks pass. *)
  let mapping =
    Mapping.canonical ~reg:(ones, perm) ~pe:(ones, perm) ~spatial:[]
      ~dram:(full, perm)
  in
  match Evaluate.evaluate ~comm:Archspec.Link.Overlapped tech Arch.eyeriss nest mapping with
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message names degeneracy: %s" msg)
      true
      (String.length msg > 0)
  | Ok m ->
    Alcotest.failf "degenerate nest accepted: energy/mac %g, ipc %g"
      m.Evaluate.energy_per_mac m.Evaluate.ipc

(* [Mapping.validate] accepts any depth, 1-, 2- and 3-level mappings
   included; the evaluator used to raise [Invalid_argument] on those from
   its canonical accessors.  It must return an [Error] naming the
   hierarchy it expects, while [Counts.compute] keeps counting any
   depth. *)
let test_non_canonical_rejected () =
  let nest = Workload.Conv.to_nest (Workload.Zoo.find "resnet-8") in
  let dims = Nest.dim_names nest in
  let full = List.map (fun d -> (d, Nest.extent nest d)) dims in
  let split d = if Nest.extent nest d mod 2 = 0 then 2 else 1 in
  let inner = List.map (fun d -> (d, split d)) dims in
  let outer = List.map (fun d -> (d, Nest.extent nest d / split d)) dims in
  let temporal factors = { Mapping.kind = Mapspace.Level.Temporal; factors; perm = dims } in
  let spatial factors = { Mapping.kind = Mapspace.Level.Spatial; factors; perm = [] } in
  List.iter
    (fun (label, levels) ->
      let mapping = Mapping.make levels in
      Alcotest.(check (result unit string))
        (label ^ " validates") (Ok ())
        (Mapping.validate nest mapping);
      (match Counts.compute nest mapping with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: counts rejected: %s" label msg);
      match Evaluate.evaluate ~comm:Archspec.Link.Overlapped tech Arch.eyeriss nest mapping with
      | Ok _ -> Alcotest.failf "%s: non-canonical mapping evaluated" label
      | Error msg ->
        let mentions sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: error names the canonical levels: %s" label msg)
          true (mentions "reg/pe/spatial/dram"))
    [
      ("T", [ temporal full ]);
      ("T,T", [ temporal inner; temporal outer ]);
      ("T,S,T", [ temporal inner; spatial [ ("k", 2) ]; temporal
          (List.map (fun (d, f) -> (d, if d = "k" then f / 2 else f)) outer) ]);
    ]

let test_eyeriss_constants () =
  (* Eyeriss area under the Table III model, used as the co-design budget. *)
  let area = Arch.eyeriss_area tech in
  Alcotest.(check bool)
    (Printf.sprintf "area %.0f in [2.3e6, 2.4e6]" area)
    true
    (area > 2.3e6 && area < 2.4e6);
  check_float ~eps:1e-6 "register energy" (0.00906719 *. 512.0)
    (Arch.register_energy tech Arch.eyeriss);
  check_float ~eps:1e-6 "sram energy" (0.01788 *. 256.0)
    (Arch.sram_energy tech Arch.eyeriss)

let () =
  Alcotest.run "accmodel"
    [
      ( "matmul closed forms",
        [
          Alcotest.test_case "DRAM volumes (Eq. 1)" `Quick test_matmul_dram_volumes;
          Alcotest.test_case "SRAM volumes (Eq. 2)" `Quick test_matmul_sram_volumes;
          Alcotest.test_case "footprints" `Quick test_matmul_footprints;
          Alcotest.test_case "read-write doubling" `Quick test_rw_doubling;
          Alcotest.test_case "unit loops ignored" `Quick test_unit_loops_ignored;
          Alcotest.test_case "conv halo exact" `Quick test_conv_halo_exact;
        ] );
      ( "refsim cross-check",
        List.map QCheck_alcotest.to_alcotest
          [ prop_matches_refsim; prop_five_levels_match_refsim ] );
      ( "energy/delay",
        [
          Alcotest.test_case "energy formula" `Quick test_energy_formula;
          Alcotest.test_case "capacity rejection" `Quick test_capacity_rejection;
          Alcotest.test_case "degenerate nest rejected" `Quick
            test_degenerate_nest_rejected;
          Alcotest.test_case "non-canonical mapping rejected" `Quick
            test_non_canonical_rejected;
          Alcotest.test_case "eyeriss constants" `Quick test_eyeriss_constants;
        ] );
    ]
