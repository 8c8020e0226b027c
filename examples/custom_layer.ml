(* Bring your own layer: define a custom Conv2D, co-design an accelerator
   for it, and emit Timeloop-style specification files for the resulting
   design point — the toolchain handoff the paper's Fig. 2 describes.

   Run with:  dune exec examples/custom_layer.exe *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module Evaluate = Accmodel.Evaluate

let () =
  let tech = Archspec.Technology.table3 in
  (* A depth-heavy 5x5 layer that none of the paper's pipelines contain. *)
  let layer =
    Workload.Conv.make ~name:"custom-5x5" ~batch:2 ~k:96 ~c:48 ~hw:32 ~rs:5 ()
  in
  let nest = Workload.Conv.to_nest layer in
  Format.printf "layer: %a@." Workload.Conv.pp layer;
  Format.printf "%a@.@." Workload.Nest.pp nest;

  (* Co-design under half the Eyeriss area. *)
  let area_budget = Archspec.Arch.eyeriss_area tech /. 2.0 in
  Printf.printf "co-designing under %.0f um^2...\n%!" area_budget;
  match O.codesign tech ~area_budget F.Energy nest with
  | Error msg -> Printf.printf "failed: %s\n" msg
  | Ok report ->
    let o = report.O.outcome in
    Format.printf "architecture: %a (area %.0f um^2)@." Archspec.Arch.pp o.I.arch
      (Archspec.Arch.area tech o.I.arch);
    Format.printf "mapping:@.%a@.@." Mapspace.Mapping.pp o.I.mapping;
    Format.printf "metrics:@.%a@.@." Evaluate.pp o.I.metrics;
    (* Emit the Timeloop-style bundle for external evaluation. *)
    let dir = Filename.concat (Filename.get_temp_dir_name ()) "thistle-custom-layer" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Specs.Timeloop.write_bundle ~dir ~node_nm:Archspec.Technology.reference_node_nm tech
      o.I.arch nest o.I.mapping;
    Printf.printf "wrote %s/{problem,mapping,arch}.yaml\n\n" dir;
    print_endline "mapping.yaml:";
    print_string (Specs.Yaml.emit (Specs.Timeloop.mapping_to_yaml o.I.mapping))
