(* Deterministic telemetry of the golden sweeps.

   Runs four capped resnet-2 sweeps in process and prints, per sweep,
   every registered counter (the Obs.Metrics.counters slice) and the
   [solver.max_duality_gap] gauge as an exact hex float:

   - the two report goldens: `optimize --max-choices 8` on the default
     Eyeriss architecture, and the capacity-starved edge architecture
     (--pes 32 --regs 16 --sram 4096) under the delay objective;
   - `codesign --max-choices 8` at the Eyeriss area;
   - `optimize --max-choices 4` with crashes injected into 30% of the
     solves (seed 11), whose quarantined pairs test_serve pins.

   These are the quantities DESIGN §9's determinism contract covers, so
   the output is identical for any --jobs and diffed against one
   committed expected file.

   Usage: counters.exe --jobs N *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module Arch = Archspec.Arch

let jobs =
  match Sys.argv with
  | [| _; "--jobs"; n |] -> int_of_string n
  | _ ->
    prerr_endline "usage: counters.exe --jobs N";
    exit 2

let tech =
  Archspec.Technology.scale_to_node Archspec.Technology.table3
    ~node_nm:Archspec.Technology.reference_node_nm

let nest = Workload.Conv.to_nest (Workload.Zoo.find "resnet-2")
let eyeriss = Arch.make ~name:"cli" ~pes:168 ~registers:512 ~sram_words:65536
let edge = Arch.make ~name:"cli" ~pes:32 ~registers:16 ~sram_words:4096
let config max_choices = { O.default_config with O.max_choices; jobs }

let print_counters title run =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let result = Fun.protect ~finally:Obs.Metrics.disable run in
  let snapshot = Obs.Metrics.snapshot () in
  Printf.printf "== %s: %s\n" title
    (match result with Ok _ -> "ok" | Error msg -> "error: " ^ msg);
  List.iter
    (fun (name, v) -> Printf.printf "%s %d\n" name v)
    (Obs.Metrics.counters snapshot);
  match List.assoc_opt "solver.max_duality_gap" snapshot with
  | Some (Obs.Metrics.Gauge g) -> Printf.printf "solver.max_duality_gap %h\n" g
  | Some _ | None -> ()

let () =
  print_counters "optimize" (fun () ->
      O.dataflow ~config:(config 8) tech eyeriss F.Energy nest);
  print_counters "optimize edge delay" (fun () ->
      O.dataflow ~config:(config 8) tech edge F.Delay nest);
  print_counters "codesign" (fun () ->
      O.codesign ~config:(config 8) tech ~area_budget:(Arch.eyeriss_area tech) F.Energy
        nest);
  let inject = Result.get_ok (Robust.Inject.parse "seed=11,crash@solve=0.3") in
  print_counters "optimize injected" (fun () ->
      O.dataflow ~config:{ (config 4) with O.inject } tech eyeriss F.Energy nest)
