module O = Thistle.Optimize
module F = Thistle.Formulate
module Arch = Archspec.Arch
module J = Obs.Json

let version = 1

type opts = { top_choices : int; max_choices : int; node_nm : float }

let default_opts =
  {
    top_choices = O.default_config.O.top_choices;
    max_choices = O.default_config.O.max_choices;
    node_nm = Archspec.Technology.reference_node_nm;
  }

type request =
  | Optimize of {
      layer : string;
      objective : F.objective;
      arch : Arch.t;
      opts : opts;
    }
  | Codesign of {
      layer : string;
      objective : F.objective;
      area : float option;
      opts : opts;
    }
  | Pipeline of { pipeline : string; objective : F.objective; opts : opts }
  | Metrics

type reject_kind = Rejected | Bad_request | Failed

type response =
  | Payload of { body : string; cached : bool }
  | Refused of { kind : reject_kind; message : string }

let objective_name = function
  | F.Energy -> "energy"
  | F.Delay -> "delay"
  | F.Edp -> "edp"

let objective_of = function
  | "energy" -> F.Energy
  | "delay" -> F.Delay
  | "edp" -> F.Edp
  | s -> failwith (Printf.sprintf "unknown objective %S" s)

let arch ~name ~pes ~regs ~sram =
  if pes < 1 || regs < 1 || sram < 1 then Error "pes, regs and sram must be >= 1"
  else Ok (Arch.make ~name ~pes ~registers:regs ~sram_words:sram)

let describe = function
  | Optimize { layer; objective; arch; _ } ->
    Printf.sprintf "optimize:%s:%s:%s" layer (objective_name objective)
      arch.Arch.arch_name
  | Codesign { layer; objective; _ } ->
    Printf.sprintf "codesign:%s:%s" layer (objective_name objective)
  | Pipeline { pipeline; objective; _ } ->
    Printf.sprintf "pipeline:%s:%s" pipeline (objective_name objective)
  | Metrics -> "metrics"

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)
(* ------------------------------------------------------------------ *)

(* Floats travel as IEEE-754 bit patterns in hex ({!J.bits}), like
   journal entries, so requests re-encode byte-identically and NaN
   payloads survive. *)
let opts_fields o =
  let open J in
  [
    field "top" (int o.top_choices);
    field "max" (int o.max_choices);
    field "node" (str (bits o.node_nm));
  ]

let encode_request req =
  let open J in
  to_string
  @@ obj
       (field "v" (int version)
       ::
       (match req with
       | Optimize { layer; objective; arch; opts } ->
         [
           field "req" (str "optimize");
           field "layer" (str layer);
           field "objective" (str (objective_name objective));
           field "arch"
             (obj
                [
                  field "name" (str arch.Arch.arch_name);
                  field "pes" (int arch.Arch.pe_count);
                  field "regs" (int arch.Arch.registers_per_pe);
                  field "sram" (int arch.Arch.sram_words);
                ]);
         ]
         @ opts_fields opts
       | Codesign { layer; objective; area; opts } ->
         [
           field "req" (str "codesign");
           field "layer" (str layer);
           field "objective" (str (objective_name objective));
         ]
         @ (match area with
           | None -> []
           | Some a -> [ field "area" (str (bits a)) ])
         @ opts_fields opts
       | Pipeline { pipeline; objective; opts } ->
         [
           field "req" (str "pipeline");
           field "pipeline" (str pipeline);
           field "objective" (str (objective_name objective));
         ]
         @ opts_fields opts
       | Metrics -> [ field "req" (str "metrics") ]))

let encode_response resp =
  let open J in
  to_string
  @@ obj
       (field "v" (int version)
       ::
       (match resp with
       | Payload { body; cached } ->
         [
           field "ok"
             (obj
                [
                  field "cached" (int (if cached then 1 else 0));
                  field "body" (str body);
                ]);
         ]
       | Refused { kind; message } ->
         let kind_name =
           match kind with
           | Rejected -> "rejected"
           | Bad_request -> "bad_request"
           | Failed -> "failed"
         in
         [
           field "refused"
             (obj [ field "kind" (str kind_name); field "msg" (str message) ]);
         ]))

(* ------------------------------------------------------------------ *)
(* Decoding                                                           *)
(* ------------------------------------------------------------------ *)

let check_version f =
  let open J in
  if int_of (find f "v") <> version then
    failwith
      (Printf.sprintf "protocol version mismatch (want %d, got %d)" version
         (int_of (find f "v")))

let opts_of f =
  let open J in
  {
    top_choices = int_of (find f "top");
    max_choices = int_of (find f "max");
    node_nm = float_of (find f "node");
  }

let wrap name decode line =
  match J.parse line with
  | Error m -> Error (name ^ ": " ^ m)
  | Ok v -> (
    try Ok (decode (J.fields v)) with Failure m -> Error (name ^ ": " ^ m))

let decode_request =
  wrap "request" (fun f ->
      let open J in
      check_version f;
      match str_of (find f "req") with
      | "optimize" ->
        let a = fields (find f "arch") in
        Optimize
          {
            layer = str_of (find f "layer");
            objective = objective_of (str_of (find f "objective"));
            arch =
              (match
                 arch
                   ~name:(str_of (find a "name"))
                   ~pes:(int_of (find a "pes"))
                   ~regs:(int_of (find a "regs"))
                   ~sram:(int_of (find a "sram"))
               with
              | Ok arch -> arch
              | Error m -> failwith m);
            opts = opts_of f;
          }
      | "codesign" ->
        Codesign
          {
            layer = str_of (find f "layer");
            objective = objective_of (str_of (find f "objective"));
            area = Option.map float_of (List.assoc_opt "area" f);
            opts = opts_of f;
          }
      | "pipeline" ->
        Pipeline
          {
            pipeline = str_of (find f "pipeline");
            objective = objective_of (str_of (find f "objective"));
            opts = opts_of f;
          }
      | "metrics" -> Metrics
      | s -> failwith (Printf.sprintf "unknown request kind %S" s))

let decode_response =
  wrap "response" (fun f ->
      let open J in
      check_version f;
      match (List.assoc_opt "ok" f, List.assoc_opt "refused" f) with
      | Some ok, None ->
        let ok_f = fields ok in
        Payload
          {
            body = str_of (find ok_f "body");
            cached = int_of (find ok_f "cached") <> 0;
          }
      | None, Some refused ->
        let r_f = fields refused in
        let kind =
          match str_of (find r_f "kind") with
          | "rejected" -> Rejected
          | "bad_request" -> Bad_request
          | "failed" -> Failed
          | s -> failwith (Printf.sprintf "unknown refusal kind %S" s)
        in
        Refused { kind; message = str_of (find r_f "msg") }
      | _ -> failwith "response carries none or both of ok/refused")

(* ------------------------------------------------------------------ *)
(* Resolution                                                         *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

type run =
  | Layer of { mode : F.arch_mode; nest : Workload.Nest.t }
  | Layers of { area_budget : float; nests : Workload.Nest.t list }

type resolved = {
  key : string;
  config : O.config;
  tech : Archspec.Technology.t;
  objective : F.objective;
  run : run;
}

let validate_opts o =
  if o.top_choices < 1 then Error "top_choices must be >= 1"
  else if o.max_choices < 1 then Error "max_choices must be >= 1"
  else Ok ()

let nest_of_layer name =
  match Workload.Zoo.find name with
  | layer -> Ok (Workload.Conv.to_nest layer)
  | exception Not_found -> Error (Printf.sprintf "unknown layer %S" name)

let tech_of_node node_nm =
  if Float.is_finite node_nm && node_nm > 0.0 then
    Ok (Archspec.Technology.scale_to_node Archspec.Technology.table3 ~node_nm)
  else Error "node_nm must be a positive finite float"

let area_budget tech area =
  let budget = match area with Some a -> a | None -> Arch.eyeriss_area tech in
  if Float.is_finite budget && budget > 0.0 then Ok budget
  else Error "area budget must be a positive finite float"

let one_layer base tech objective opts mode nest =
  let config =
    { base with O.top_choices = opts.top_choices; max_choices = opts.max_choices }
  in
  let key = O.request_key ~config tech mode objective nest in
  { key; config; tech; objective; run = Layer { mode; nest } }

let resolve base req =
  let checked opts =
    let* () = validate_opts opts in
    tech_of_node opts.node_nm
  in
  match req with
  | Metrics -> Error "a metrics request runs no solve"
  | Optimize { layer = name; objective; arch; opts } ->
    let* tech = checked opts in
    let* nest = nest_of_layer name in
    Ok (one_layer base tech objective opts (F.Fixed arch) nest)
  | Codesign { layer = name; objective; area; opts } ->
    let* tech = checked opts in
    let* nest = nest_of_layer name in
    let* area_budget = area_budget tech area in
    Ok (one_layer base tech objective opts (F.Codesign { area_budget }) nest)
  | Pipeline { pipeline; objective; opts } ->
    let* tech = checked opts in
    let* layers =
      match List.assoc_opt pipeline Workload.Zoo.pipelines with
      | Some layers -> Ok layers
      | None -> Error (Printf.sprintf "unknown pipeline %S" pipeline)
    in
    let nests = List.map Workload.Conv.to_nest layers in
    (* The CLI's pipeline command has no --top-choices. *)
    let config = { base with O.max_choices = opts.max_choices } in
    let* area_budget = area_budget tech None in
    let key =
      String.concat "&"
        (describe req
        :: List.map
             (O.request_key ~config tech (F.Codesign { area_budget }) objective)
             nests)
    in
    Ok { key; config; tech; objective; run = Layers { area_budget; nests } }

let solve r =
  match r.run with
  | Layer { mode; nest } -> O.run ~config:r.config r.tech mode r.objective nest
  | Layers _ -> Error "a pipeline request has no single report"

let body r report =
  let header =
    match r.run with
    | Layer { mode = F.Codesign { area_budget }; _ } -> Render.area_header area_budget
    | Layer { mode = F.Fixed _; _ } | Layers _ -> ""
  in
  header ^ Render.outcome ~tech:r.tech report

let render r =
  match r.run with
  | Layer _ -> Result.map (body r) (solve r)
  | Layers { area_budget; nests } ->
    Ok (Render.pipeline ~config:r.config r.tech ~area_budget r.objective nests)
