(* Throughput (delay) optimization for Yolo-9000 layers on the fixed
   Eyeriss architecture, compared against a Timeloop-Mapper-style random
   search with the same evaluation model (the paper's Fig. 7 setting).

   Run with:  dune exec examples/yolo_delay.exe *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module S = Mapper.Search
module Evaluate = Accmodel.Evaluate

let () =
  let tech = Archspec.Technology.table3 in
  let arch = Archspec.Arch.eyeriss in
  Printf.printf "architecture: %s (max IPC = %d)\n\n"
    (Format.asprintf "%a" Archspec.Arch.pp arch)
    arch.Archspec.Arch.pe_count;
  let layers =
    List.filter
      (fun l -> List.mem l.Workload.Conv.layer_name [ "yolo-2"; "yolo-5"; "yolo-7"; "yolo-9" ])
      Workload.Zoo.yolo9000
  in
  let mapper_config = { S.max_trials = 10000; victory_condition = 10000; seed = 7 } in
  Printf.printf "%-8s %12s %12s %9s\n" "layer" "mapper IPC" "thistle IPC" "speedup";
  List.iter
    (fun layer ->
      let nest = Workload.Conv.to_nest layer in
      let config = { O.default_config with O.top_choices = 10 } in
      let mapper =
        S.search ~config:mapper_config ~comm:config.O.comm tech arch S.Min_delay nest
      in
      let mapper_ipc =
        match mapper.S.best with
        | Some (_, m) -> m.Evaluate.ipc
        | None -> nan
      in
      match O.dataflow ~config tech arch F.Delay nest with
      | Error msg ->
        Printf.printf "%-8s %12.2f %12s ! %s\n" layer.Workload.Conv.layer_name
          mapper_ipc "-" msg
      | Ok r ->
        let ipc = r.O.outcome.I.metrics.Evaluate.ipc in
        Printf.printf "%-8s %12.2f %12.2f %9.3f\n%!" layer.Workload.Conv.layer_name
          mapper_ipc ipc (ipc /. mapper_ipc))
    layers
