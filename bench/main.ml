(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (Tables II/III, Figs. 4-8), plus the EDP and
   ablation sections.

   Usage:
     dune exec bench/main.exe                 # everything, full settings
     dune exec bench/main.exe -- --quick      # reduced trial counts
     dune exec bench/main.exe -- --only fig4,fig7
     dune exec bench/main.exe -- --metrics m.json   # counter/histogram dump *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module Pl = Thistle.Pipeline
module S = Mapper.Search
module Arch = Archspec.Arch
module Tech = Archspec.Technology
module Conv = Workload.Conv
module Nest = Workload.Nest
module Evaluate = Accmodel.Evaluate

let tech = Tech.table3

let area_budget = Arch.eyeriss_area tech

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

type options = {
  quick : bool;
  only : string list option;
  metrics : string option;
}

let parse_args () =
  let quick = ref false in
  let only = ref None in
  let metrics = ref None in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      go rest
    | "--only" :: spec :: rest ->
      only := Some (String.split_on_char ',' spec);
      go rest
    | "--metrics" :: file :: rest ->
      metrics := Some file;
      go rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n" arg;
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  { quick = !quick; only = !only; metrics = !metrics }

let options = parse_args ()

let wants section =
  match options.only with None -> true | Some l -> List.mem section l

let section name =
  Printf.printf "\n[%s]\n" name;
  flush stdout

(* Reduced settings for --quick runs. *)
let mapper_config =
  if options.quick then { S.max_trials = 3000; victory_condition = 3000; seed = 42 }
  else { S.max_trials = 30000; victory_condition = 15000; seed = 42 }

let thistle_config =
  if options.quick then { O.default_config with O.max_choices = 16; top_choices = 2 }
  else O.default_config

(* Under the delay objective many permutation choices tie near
   macs / P in the continuous relaxation; integerization quality then
   decides, so a deeper shortlist is needed. *)
let deep_shortlist =
  { thistle_config with O.top_choices = (if options.quick then 8 else 12) }

let thistle_config_for obj =
  match obj with `Energy -> thistle_config | `Delay -> deep_shortlist

let layers =
  if options.quick then
    List.filter
      (fun l ->
        List.mem l.Conv.layer_name
          [ "yolo-2"; "yolo-6"; "resnet-2"; "resnet-8"; "resnet-12" ])
      (Workload.Zoo.yolo9000 @ Workload.Zoo.resnet18)
  else Workload.Zoo.yolo9000 @ Workload.Zoo.resnet18

let nests = List.map (fun l -> (l, Conv.to_nest l)) layers

(* ------------------------------------------------------------------ *)
(* Shared per-layer computations (memoized across figures)            *)
(* ------------------------------------------------------------------ *)

let memo f =
  let cache = Hashtbl.create 16 in
  fun key ->
    match Hashtbl.find_opt cache key with
    | Some v -> v
    | None ->
      let v = f key in
      Hashtbl.replace cache key v;
      v

let objective_of = function `Energy -> F.Energy | `Delay -> F.Delay

let criterion_of = function `Energy -> S.Min_energy | `Delay -> S.Min_delay

let nest_of layer_name =
  let _, nest = List.find (fun (l, _) -> l.Conv.layer_name = layer_name) nests in
  nest

(* Thistle dataflow optimization on the Eyeriss architecture. *)
let eyeriss_thistle =
  memo (fun (layer_name, obj) ->
      O.dataflow ~config:(thistle_config_for obj) tech Arch.eyeriss (objective_of obj)
        (nest_of layer_name))

(* Timeloop-Mapper-style search on the Eyeriss architecture, scored
   under Thistle's delay model. *)
let eyeriss_mapper =
  memo (fun (layer_name, obj) ->
      S.search ~config:mapper_config ~comm:(thistle_config_for obj).O.comm tech
        Arch.eyeriss (criterion_of obj) (nest_of layer_name))

(* Layer-wise architecture-dataflow co-design at the Eyeriss area. *)
let codesign =
  memo (fun (layer_name, obj) ->
      O.codesign ~config:(thistle_config_for obj) tech ~area_budget (objective_of obj)
        (nest_of layer_name))

(* The architecture of the dominant layer (largest energy / delay among
   the layer-wise co-designs), shared by all layers in Figs. 6 and 8. *)
let dominant_arch =
  memo (fun obj ->
      let entries =
        List.map
          (fun (l, nest) -> { Pl.nest; result = codesign (l.Conv.layer_name, obj) })
          nests
      in
      Pl.dominant_arch (objective_of obj) entries)

let fixed_dominant =
  memo (fun (layer_name, obj) ->
      match dominant_arch obj with
      | Error msg -> Error msg
      | Ok arch ->
        O.dataflow ~config:(thistle_config_for obj) tech arch (objective_of obj)
          (nest_of layer_name))

let metrics_of_report = function
  | Ok (r : O.report) -> Some r.O.outcome.I.metrics
  | Error _ -> None

let energy_per_mac = function
  | Some (m : Evaluate.t) -> m.Evaluate.energy_per_mac
  | None -> nan

let ipc = function Some (m : Evaluate.t) -> m.Evaluate.ipc | None -> nan

(* ------------------------------------------------------------------ *)
(* Tables                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "table2";
  Printf.printf "%-10s %6s %6s %6s %4s %7s %12s\n" "layer" "K" "C" "H=W" "RS" "stride"
    "MACs";
  List.iter
    (fun (l, nest) ->
      Printf.printf "%-10s %6d %6d %6d %4d %7d %12.4g\n" l.Conv.layer_name
        l.Conv.out_channels l.Conv.in_channels l.Conv.in_height l.Conv.kernel
        l.Conv.stride (Nest.ops nest))
    nests

let table3 () =
  section "table3";
  Printf.printf "%-28s %14s %s\n" "parameter" "value" "unit";
  let row name value unit = Printf.printf "%-28s %14g %s\n" name value unit in
  row "area per MAC" tech.Tech.area_mac "um^2";
  row "area per register" tech.Tech.area_register "um^2";
  row "area per SRAM word" tech.Tech.area_sram_word "um^2";
  row "energy per int16 MAC" tech.Tech.energy_mac "pJ";
  row "register energy-constant" tech.Tech.sigma_register "pJ/word";
  row "SRAM energy-constant" tech.Tech.sigma_sram "pJ/sqrt-word";
  row "energy per DRAM access" tech.Tech.energy_dram "pJ";
  row "Eyeriss area (budget)" area_budget "um^2"

(* ------------------------------------------------------------------ *)
(* Figures                                                            *)
(* ------------------------------------------------------------------ *)

(* Fig. 4: energy on the Eyeriss architecture, Timeloop-Mapper-style
   search vs Thistle; EnergyUp = mapper / thistle. *)
let fig4 () =
  section "fig4";
  Printf.printf "%-10s %14s %15s %9s\n" "layer" "mapper pJ/MAC" "thistle pJ/MAC"
    "EnergyUp";
  List.iter
    (fun (l, _) ->
      let name = l.Conv.layer_name in
      let mapper = eyeriss_mapper (name, `Energy) in
      let mapper_e =
        match mapper.S.best with
        | Some (_, m) -> m.Evaluate.energy_per_mac
        | None -> nan
      in
      let thistle_e =
        energy_per_mac (metrics_of_report (eyeriss_thistle (name, `Energy)))
      in
      Printf.printf "%-10s %14.2f %15.2f %9.3f\n" name mapper_e thistle_e
        (mapper_e /. thistle_e);
      flush stdout)
    nests

(* Fig. 5: energy, Eyeriss-architecture optimal dataflow vs layer-wise
   co-designed architecture at the same area. *)
let fig5 () =
  section "fig5";
  Printf.printf "%-10s %14s %15s %9s %s\n" "layer" "eyeriss pJ/MAC" "codesign pJ/MAC"
    "improve" "architecture";
  List.iter
    (fun (l, _) ->
      let name = l.Conv.layer_name in
      let eyeriss_e =
        energy_per_mac (metrics_of_report (eyeriss_thistle (name, `Energy)))
      in
      (match codesign (name, `Energy) with
      | Error msg -> Printf.printf "%-10s %14.2f %15s ! %s\n" name eyeriss_e "-" msg
      | Ok r ->
        let m = r.O.outcome.I.metrics in
        let a = r.O.outcome.I.arch in
        Printf.printf "%-10s %14.2f %15.2f %9.3f P=%d R=%d S=%d\n" name eyeriss_e
          m.Evaluate.energy_per_mac
          (eyeriss_e /. m.Evaluate.energy_per_mac)
          a.Arch.pe_count a.Arch.registers_per_pe a.Arch.sram_words);
      flush stdout)
    nests

(* Fig. 6: energy, Eyeriss vs layer-wise vs single fixed architecture
   taken from the energy-dominant layer. *)
let fig6 () =
  section "fig6";
  (match dominant_arch `Energy with
  | Ok a ->
    Printf.printf "dominant-layer architecture: %s (P=%d R=%d S=%d, area %.3g)\n"
      a.Arch.arch_name a.Arch.pe_count a.Arch.registers_per_pe a.Arch.sram_words
      (Arch.area tech a)
  | Error msg -> Printf.printf "dominant architecture failed: %s\n" msg);
  Printf.printf "%-10s %14s %16s %12s\n" "layer" "eyeriss pJ/MAC" "layerwise pJ/MAC"
    "fixed pJ/MAC";
  List.iter
    (fun (l, _) ->
      let name = l.Conv.layer_name in
      let eyeriss_e =
        energy_per_mac (metrics_of_report (eyeriss_thistle (name, `Energy)))
      in
      let layerwise_e = energy_per_mac (metrics_of_report (codesign (name, `Energy))) in
      let fixed_e = energy_per_mac (metrics_of_report (fixed_dominant (name, `Energy))) in
      Printf.printf "%-10s %14.2f %16.2f %12.2f\n" name eyeriss_e layerwise_e fixed_e;
      flush stdout)
    nests

(* Fig. 7: throughput (MAC IPC) on the Eyeriss architecture, mapper vs
   Thistle; the theoretical maximum is the PE count, 168. *)
let fig7 () =
  section "fig7";
  Printf.printf "%-10s %12s %12s %9s\n" "layer" "mapper IPC" "thistle IPC" "speedup";
  List.iter
    (fun (l, _) ->
      let name = l.Conv.layer_name in
      let mapper = eyeriss_mapper (name, `Delay) in
      let mapper_ipc =
        match mapper.S.best with Some (_, m) -> m.Evaluate.ipc | None -> nan
      in
      let thistle_ipc = ipc (metrics_of_report (eyeriss_thistle (name, `Delay))) in
      Printf.printf "%-10s %12.2f %12.2f %9.3f\n" name mapper_ipc thistle_ipc
        (thistle_ipc /. mapper_ipc);
      flush stdout)
    nests

(* Fig. 8: throughput, Eyeriss vs layer-wise co-design vs fixed
   architecture from the delay-dominant layer. *)
let fig8 () =
  section "fig8";
  (match dominant_arch `Delay with
  | Ok a ->
    Printf.printf "dominant-layer architecture: %s (P=%d R=%d S=%d, area %.3g)\n"
      a.Arch.arch_name a.Arch.pe_count a.Arch.registers_per_pe a.Arch.sram_words
      (Arch.area tech a)
  | Error msg -> Printf.printf "dominant architecture failed: %s\n" msg);
  Printf.printf "%-10s %12s %13s %10s\n" "layer" "eyeriss IPC" "layerwise IPC"
    "fixed IPC";
  List.iter
    (fun (l, _) ->
      let name = l.Conv.layer_name in
      let eyeriss_ipc = ipc (metrics_of_report (eyeriss_thistle (name, `Delay))) in
      let layerwise_ipc = ipc (metrics_of_report (codesign (name, `Delay))) in
      let fixed_ipc = ipc (metrics_of_report (fixed_dominant (name, `Delay))) in
      Printf.printf "%-10s %12.2f %13.2f %10.2f\n" name eyeriss_ipc layerwise_ipc
        fixed_ipc;
      flush stdout)
    nests

(* ------------------------------------------------------------------ *)
(* Extension: EDP objective, and ablations of the design choices      *)
(* ------------------------------------------------------------------ *)

let ablation_layers =
  List.filter
    (fun (l, _) ->
      List.mem l.Conv.layer_name [ "yolo-2"; "resnet-2"; "resnet-8" ])
    nests

(* Energy-delay product (a DGP-expressible objective the paper mentions
   but does not evaluate): compare the three criteria on Eyeriss. *)
let edp_section () =
  section "edp";
  Printf.printf "%-10s %-9s %10s %8s %12s\n" "layer" "objective" "pJ/MAC" "IPC"
    "EDP (pJ*cyc)";
  List.iter
    (fun (l, nest) ->
      List.iter
        (fun (label, objective) ->
          (* EDP ties like delay does: integerize a deep shortlist. *)
          let config =
            match objective with F.Energy -> thistle_config | F.Delay | F.Edp -> deep_shortlist
          in
          match O.dataflow ~config tech Arch.eyeriss objective nest with
          | Error msg -> Printf.printf "%-10s %-9s failed: %s\n" l.Conv.layer_name label msg
          | Ok r ->
            let m = r.O.outcome.I.metrics in
            Printf.printf "%-10s %-9s %10.2f %8.1f %12.4g\n%!" l.Conv.layer_name label
              m.Evaluate.energy_per_mac m.Evaluate.ipc
              (m.Evaluate.energy_pj *. m.Evaluate.cycles))
        [ ("energy", F.Energy); ("delay", F.Delay); ("edp", F.Edp) ])
    ablation_layers

(* Window-dim placement: restricting r/s to the register level caps the
   achievable parallelism (DESIGN.md's Fig. 7 note). *)
let ablation_placement () =
  section "ablation-placement";
  Printf.printf "%-10s %14s %12s\n" "layer" "reg-only IPC" "full IPC";
  List.iter
    (fun (l, nest) ->
      let run explore_placements =
        let config = { thistle_config with O.explore_placements; top_choices = 8 } in
        match O.dataflow ~config tech Arch.eyeriss F.Delay nest with
        | Ok r -> r.O.outcome.I.metrics.Evaluate.ipc
        | Error _ -> nan
      in
      Printf.printf "%-10s %14.2f %12.2f\n%!" l.Conv.layer_name (run false) (run true))
    ablation_layers

(* Integerization ladder width (the paper's n): candidate count vs
   achieved energy. *)
let ablation_divisors () =
  section "ablation-divisors";
  Printf.printf "%-10s %4s %12s %12s\n" "layer" "n" "pJ/MAC" "candidates";
  List.iter
    (fun (l, nest) ->
      List.iter
        (fun n ->
          let config = { thistle_config with O.n_divisors = n } in
          match O.dataflow ~config tech Arch.eyeriss F.Energy nest with
          | Error msg -> Printf.printf "%-10s %4d failed: %s\n" l.Conv.layer_name n msg
          | Ok r ->
            Printf.printf "%-10s %4d %12.2f %12d\n%!" l.Conv.layer_name n
              r.O.outcome.I.metrics.Evaluate.energy_per_mac
              r.O.outcome.I.candidates_tried)
        [ 1; 2; 3 ])
    ablation_layers

(* Permutation-space pruning: raw pairs vs surviving cost classes. *)
let ablation_pruning () =
  section "ablation-pruning";
  Printf.printf "%-10s %10s %10s %12s\n" "layer" "raw pairs" "kept" "prune ratio";
  List.iter
    (fun (l, nest) ->
      let plan = Thistle.Permutations.enumerate nest in
      let kept = List.length plan.Thistle.Permutations.choices in
      Printf.printf "%-10s %10d %10d %11.1fx\n%!" l.Conv.layer_name
        plan.Thistle.Permutations.raw_count kept
        (float_of_int plan.Thistle.Permutations.raw_count /. float_of_int kept))
    ablation_layers

(* Grid-search co-design (the prior-work strategy the paper contrasts
   with): enumerate power-of-two architecture points, run a mapping
   search per point, and compare quality and model-evaluation counts
   against Thistle's single-shot formulation. *)
let ablation_gridsearch () =
  section "ablation-gridsearch";
  Printf.printf "%-10s %-11s %10s %6s %5s %8s %12s\n" "layer" "method" "pJ/MAC" "PEs"
    "R" "SRAM" "model evals";
  List.iter
    (fun (l, nest) ->
      (match codesign (l.Conv.layer_name, `Energy) with
      | Error msg -> Printf.printf "%-10s %-11s failed: %s\n" l.Conv.layer_name "thistle" msg
      | Ok r ->
        let o = r.O.outcome in
        Printf.printf "%-10s %-11s %10.2f %6d %5d %8d %12d\n%!" l.Conv.layer_name
          "thistle" o.I.metrics.Evaluate.energy_per_mac o.I.arch.Arch.pe_count
          o.I.arch.Arch.registers_per_pe o.I.arch.Arch.sram_words
          o.I.candidates_tried);
      let grid_config =
        {
          Mapper.Grid.default_config with
          Mapper.Grid.trials_per_point = (if options.quick then 500 else 2000);
        }
      in
      let grid =
        Mapper.Grid.search ~config:grid_config ~comm:thistle_config.O.comm tech
          ~area_budget Mapper.Search.Min_energy nest
      in
      match grid.Mapper.Grid.winner with
      | Some { Mapper.Grid.best = Some (_, m); arch; _ } ->
        Printf.printf "%-10s %-11s %10.2f %6d %5d %8d %12d\n%!" l.Conv.layer_name
          "grid-search" m.Evaluate.energy_per_mac arch.Arch.pe_count
          arch.Arch.registers_per_pe arch.Arch.sram_words grid.Mapper.Grid.total_trials
      | Some { Mapper.Grid.best = None; _ } | None ->
        Printf.printf "%-10s %-11s found no valid point (%d trials)\n" l.Conv.layer_name
          "grid-search" grid.Mapper.Grid.total_trials)
    ablation_layers

(* Shortlist depth for the delay objective (near-ties in the continuous
   relaxation make integerization quality decide). *)
let ablation_shortlist () =
  section "ablation-shortlist";
  Printf.printf "%-10s %6s %10s\n" "layer" "top-K" "IPC";
  List.iter
    (fun (l, nest) ->
      List.iter
        (fun top_choices ->
          let config = { thistle_config with O.top_choices } in
          match O.codesign ~config tech ~area_budget F.Delay nest with
          | Error msg ->
            Printf.printf "%-10s %6d failed: %s\n" l.Conv.layer_name top_choices msg
          | Ok r ->
            Printf.printf "%-10s %6d %10.2f\n%!" l.Conv.layer_name top_choices
              r.O.outcome.I.metrics.Evaluate.ipc)
        [ 1; 3; 10 ])
    ablation_layers

(* Technology what-if: co-design the same layer at scaled process nodes
   (first-order scaling; DRAM does not shrink, so it increasingly
   dominates the energy budget). *)
let ablation_technology () =
  section "ablation-technology";
  Printf.printf "%-10s %8s %12s %14s %12s\n" "layer" "node" "pJ/MAC" "dram share" "budget um^2";
  let layer, nest = List.hd ablation_layers in
  List.iter
    (fun node_nm ->
      let scaled = Tech.scale_to_node tech ~node_nm in
      let budget = Arch.eyeriss_area scaled in
      match O.codesign ~config:thistle_config scaled ~area_budget:budget F.Energy nest with
      | Error msg -> Printf.printf "%-10s %8.1f failed: %s\n" layer.Conv.layer_name node_nm msg
      | Ok r ->
        let m = r.O.outcome.I.metrics in
        Printf.printf "%-10s %8.1f %12.2f %13.0f%% %12.3g\n%!" layer.Conv.layer_name
          node_nm m.Evaluate.energy_per_mac
          (100.0 *. m.Evaluate.breakdown.Evaluate.dram_energy /. m.Evaluate.energy_pj)
          budget)
    [ 45.0; 32.0; 22.0 ]

(* ------------------------------------------------------------------ *)

(* Every section, in the order a run prints them; --only names a subset. *)
let sections =
  [
    ("table2", table2);
    ("table3", table3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("edp", edp_section);
    ("ablation-placement", ablation_placement);
    ("ablation-divisors", ablation_divisors);
    ("ablation-pruning", ablation_pruning);
    ("ablation-shortlist", ablation_shortlist);
    ("ablation-gridsearch", ablation_gridsearch);
    ("ablation-technology", ablation_technology);
  ]

let () =
  (* An unknown name would select nothing: refuse it rather than print
     only the header. *)
  let unknown =
    List.filter
      (fun name -> not (List.mem_assoc name sections))
      (Option.value options.only ~default:[])
  in
  if unknown <> [] then begin
    Printf.eprintf "--only: unknown section %s; sections are %s\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst sections));
    exit 2
  end;
  Printf.printf "thistle reproduction harness%s\n"
    (if options.quick then " (quick mode)" else "");
  if options.metrics <> None then begin
    Obs.Metrics.reset ();
    Obs.Metrics.enable ()
  end;
  let t0 = Unix.gettimeofday () in
  List.iter (fun (name, run) -> if wants name then run ()) sections;
  (match options.metrics with
  | None -> ()
  | Some file ->
    Obs.Metrics.disable ();
    let oc = open_out file in
    output_string oc (Obs.Metrics.to_json (Obs.Metrics.snapshot ()));
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" file);
  Printf.printf "\ntotal time: %.1f s\n" (Unix.gettimeofday () -. t0)
