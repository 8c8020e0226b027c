module Nest = Workload.Nest
module Mapping = Mapspace.Mapping
module Level = Mapspace.Level
module Arch = Archspec.Arch
module Tech = Archspec.Technology

(* ------------------------------------------------------------------ *)
(* Problem                                                            *)
(* ------------------------------------------------------------------ *)

let projection_to_string proj =
  String.concat "+"
    (List.map
       (fun { Nest.stride; iter } ->
         if stride = 1 then iter else Printf.sprintf "%d*%s" stride iter)
       proj)

let problem_to_yaml nest =
  let dims = Yaml.List (List.map (fun d -> Yaml.String d) (Nest.dim_names nest)) in
  let data_space t =
    Yaml.Map
      [
        ("name", Yaml.String t.Nest.tensor_name);
        ( "projection",
          Yaml.List
            (List.map (fun p -> Yaml.String (projection_to_string p)) t.Nest.projections) );
        ("read-write", Yaml.Bool t.Nest.read_write);
      ]
  in
  let instance =
    Yaml.Map
      (List.map (fun d -> (d.Nest.dim_name, Yaml.Int d.Nest.extent)) (Nest.dims nest))
  in
  Yaml.Map
    [
      ( "problem",
        Yaml.Map
          [
            ("name", Yaml.String (Nest.name nest));
            ("dimensions", dims);
            ("data-spaces", Yaml.List (List.map data_space (Nest.tensors nest)));
            ("instance", instance);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Mapping                                                            *)
(* ------------------------------------------------------------------ *)

let factors_to_string factors =
  String.concat " " (List.map (fun (d, f) -> Printf.sprintf "%s=%d" d f) factors)

let level_target i =
  (* Canonical hierarchy, innermost first. *)
  match i with
  | 0 -> ("RegisterFile", "temporal")
  | 1 -> ("SRAM", "temporal")
  | 2 -> ("SRAM", "spatial")
  | 3 -> ("DRAM", "temporal")
  | _ -> (Printf.sprintf "Level%d" i, "temporal")

let mapping_to_yaml mapping =
  let directive i (lvl : Mapping.level) =
    let target, typ = level_target i in
    let base =
      [
        ("target", Yaml.String target);
        ("type", Yaml.String typ);
        ("factors", Yaml.String (factors_to_string lvl.Mapping.factors));
      ]
    in
    let perm =
      match lvl.Mapping.kind with
      | Level.Spatial -> []
      | Level.Temporal ->
        (* Timeloop writes permutations innermost first. *)
        [ ("permutation", Yaml.String (String.concat " " (List.rev lvl.Mapping.perm))) ]
    in
    Yaml.Map (base @ perm)
  in
  (* Outermost directive first, as in Fig. 3(d). *)
  let directives = List.mapi directive (Mapping.levels mapping) in
  Yaml.Map [ ("mapping", Yaml.List (List.rev directives)) ]

(* ------------------------------------------------------------------ *)
(* Architecture                                                       *)
(* ------------------------------------------------------------------ *)

(* Bandwidths are words/cycle and may be fractional (e.g. a 8.5-words/cycle
   technology point): truncating through [int_of_float] silently exported
   8, so the Timeloop model under-provisioned the link. *)
let bandwidth_yaml v =
  if Float.is_integer v then Yaml.Int (int_of_float v) else Yaml.Float v

let architecture_to_yaml ~node_nm tech arch =
  let dram =
    Yaml.Map
      [
        ("name", Yaml.String "DRAM");
        ("class", Yaml.String "DRAM");
        ( "attributes",
          Yaml.Map
            [
              ("type", Yaml.String "LPDDR4");
              ("word-bits", Yaml.Int 16);
              ("read_bandwidth", bandwidth_yaml tech.Tech.dram_bandwidth);
              ("write_bandwidth", bandwidth_yaml tech.Tech.dram_bandwidth);
            ] );
      ]
  in
  let sram =
    Yaml.Map
      [
        ("name", Yaml.String "SRAM");
        ("class", Yaml.String "SRAM");
        ( "attributes",
          Yaml.Map
            [
              ("depth", Yaml.Int arch.Arch.sram_words);
              ("word-bits", Yaml.Int 16);
              ("read_bandwidth", bandwidth_yaml tech.Tech.sram_bandwidth);
              ("write_bandwidth", bandwidth_yaml tech.Tech.sram_bandwidth);
            ] );
      ]
  in
  let pe =
    Yaml.Map
      [
        ("name", Yaml.String (Printf.sprintf "PE[0..%d]" (arch.Arch.pe_count - 1)));
        ( "local",
          Yaml.List
            [
              Yaml.Map
                [
                  ("name", Yaml.String "RegisterFile");
                  ("class", Yaml.String "regfile");
                  ( "attributes",
                    Yaml.Map
                      [ ("depth", Yaml.Int arch.Arch.registers_per_pe); ("word-bits", Yaml.Int 16) ]
                  );
                ];
              Yaml.Map
                [
                  ("name", Yaml.String "MACC");
                  ("class", Yaml.String "intmac");
                  ("attributes", Yaml.Map [ ("datawidth", Yaml.Int 16) ]);
                ];
            ] );
      ]
  in
  Yaml.Map
    [
      ( "architecture",
        Yaml.Map
          [
            ("version", Yaml.String "A.3");
            ("name", Yaml.String arch.Arch.arch_name);
            ("technology", Yaml.String (Printf.sprintf "%gnm" node_nm));
            ( "subtree",
              Yaml.List
                [
                  Yaml.Map
                    [
                      ("name", Yaml.String "system");
                      ("local", Yaml.List [ dram ]);
                      ( "subtree",
                        Yaml.List
                          [
                            Yaml.Map
                              [
                                ("name", Yaml.String "Chip");
                                ("local", Yaml.List [ sram ]);
                                ("subtree", Yaml.List [ pe ]);
                              ];
                          ] );
                    ];
                ] );
          ] );
    ]

let write_bundle ~dir ~node_nm tech arch nest mapping =
  let write name v =
    let oc = open_out (Filename.concat dir name) in
    output_string oc (Yaml.emit v);
    close_out oc
  in
  write "problem.yaml" (problem_to_yaml nest);
  write "mapping.yaml" (mapping_to_yaml mapping);
  write "arch.yaml" (architecture_to_yaml ~node_nm tech arch)
