(* Quickstart: optimize the dataflow of a matrix multiplication (the
   paper's Fig. 1 example) for a small fixed accelerator, and compare the
   result against a naive untiled-ish mapping.

   Run with:  dune exec examples/quickstart.exe *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module Evaluate = Accmodel.Evaluate

let () =
  let tech = Archspec.Technology.table3 in
  (* A 64-PE accelerator with 64 registers per PE and an 8 K-word SRAM. *)
  let arch = Archspec.Arch.make ~name:"demo" ~pes:64 ~registers:64 ~sram_words:8192 in
  let nest = Workload.Matmul.nest ~ni:256 ~nj:256 ~nk:256 () in
  Format.printf "workload:@.%a@.@." Workload.Nest.pp nest;
  Format.printf "architecture: %a@.@." Archspec.Arch.pp arch;

  (* A deliberately poor reference point: everything streamed from DRAM
     in large row panels, no register tiling to speak of. *)
  let naive =
    Mapspace.Mapping.canonical
      ~reg:([ ("i", 2); ("j", 2); ("k", 2) ], [ "i"; "j"; "k" ])
      ~pe:([ ("k", 128) ], [ "i"; "j"; "k" ])
      ~spatial:[ ("i", 4) ]
      ~dram:([ ("i", 32); ("j", 128) ], [ "i"; "j"; "k" ])
  in
  (* Scored under the optimizer's delay model, like its own answer. *)
  (match Evaluate.evaluate ~comm:O.default_config.O.comm tech arch nest naive with
  | Ok m -> Format.printf "naive mapping:@.%a@.@." Evaluate.pp m
  | Error msg -> Format.printf "naive mapping invalid: %s@.@." msg);

  (* Thistle: enumerate pruned loop permutations, solve one geometric
     program per choice, integerize, rank with the model. *)
  match O.dataflow tech arch F.Energy nest with
  | Error msg -> Format.printf "optimization failed: %s@." msg
  | Ok report ->
    let o = report.O.outcome in
    Format.printf "thistle explored %d pruned permutation choices (%d solved)@."
      report.O.choices_enumerated report.O.choices_solved;
    Format.printf "best mapping:@.%a@.@." Mapspace.Mapping.pp o.I.mapping;
    Format.printf "metrics:@.%a@." Evaluate.pp o.I.metrics
