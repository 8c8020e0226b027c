(* Deterministic telemetry of the golden sweeps.

   Runs five capped resnet-2 sweeps in process and prints, per sweep,
   every registered counter (the Obs.Metrics.counters slice) and the
   [solver.max_duality_gap] gauge as an exact hex float:

   - the two report goldens: `optimize --max-choices 8` on the default
     Eyeriss architecture, and the capacity-starved edge architecture
     (--pes 32 --regs 16 --sram 4096) under the delay objective, the
     latter journaled;
   - `--resume` of the edge sweep from that journal;
   - `codesign --max-choices 8` at the Eyeriss area;
   - the fault-injected sweep of the @robust smoke.

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
  let journal = Filename.temp_file "thistle-counters" ".jsonl" in
  Sys.remove journal;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists journal then Sys.remove journal)
    (fun () ->
      print_counters "optimize" (fun () ->
          O.dataflow ~config:(config 8) tech eyeriss F.Energy nest);
      let edge_config = { (config 8) with O.journal = Some journal } in
      print_counters "optimize edge delay" (fun () ->
          O.dataflow ~config:edge_config tech edge F.Delay nest);
      print_counters "optimize edge delay --resume" (fun () ->
          O.dataflow ~config:{ edge_config with O.resume = true } tech edge F.Delay nest);
      print_counters "codesign" (fun () ->
          O.codesign ~config:(config 8) tech ~area_budget:(Arch.eyeriss_area tech)
            F.Energy nest);
      let inject =
        Result.get_ok (Robust.Inject.parse "seed=11,crash@solve=0.3,stall@solve=0.2")
      in
      print_counters "optimize injected" (fun () ->
          O.dataflow
            ~config:{ (config 4) with O.inject; retries = 1 }
            tech eyeriss F.Energy nest))
