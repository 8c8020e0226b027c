module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module Pl = Thistle.Pipeline
module An = Analysis
module Arch = Archspec.Arch
module Nest = Workload.Nest
module Evaluate = Accmodel.Evaluate

let with_ppf f =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let outcome ~tech (report : O.report) =
  with_ppf @@ fun ppf ->
  let o = report.O.outcome in
  Format.fprintf ppf "explored %d pruned permutation choices, %d programs solved@."
    report.O.choices_enumerated report.O.choices_solved;
  Format.fprintf ppf "solver: %a@." Gp.Solver.pp_totals report.O.solve_totals;
  if report.O.failures <> [] then begin
    Format.fprintf ppf "quarantined %d pair(s):@." (List.length report.O.failures);
    Format.fprintf ppf "%a" Robust.pp_summary report.O.failures
  end;
  if report.O.pruned <> [] then begin
    Format.fprintf ppf "presolve pruned %d pair(s):@." (List.length report.O.pruned);
    List.iter
      (fun (prov, (proof : An.Presolve.proof)) ->
        Format.fprintf ppf "  %s: constraint %s bounded to %.6g (%d step(s))@." prov
          proof.An.Presolve.culprit proof.An.Presolve.bound
          (List.length proof.An.Presolve.steps))
      report.O.pruned
  end;
  Format.fprintf ppf "architecture: %a (area %.0f um^2)@." Arch.pp o.I.arch
    (Arch.area tech o.I.arch);
  Format.fprintf ppf "mapping:@.%a@." Mapspace.Mapping.pp o.I.mapping;
  Format.fprintf ppf "metrics:@.%a@." Evaluate.pp o.I.metrics

let area_header area_budget = Printf.sprintf "area budget: %.0f um^2\n" area_budget

let pipeline ~config tech ~area_budget objective nests =
  with_ppf @@ fun ppf ->
  let entries =
    Pl.run_layers ~config tech (F.Codesign { area_budget }) objective nests
  in
  List.iter
    (fun (e : Pl.entry) ->
      match e.Pl.result with
      | Error msg ->
        Format.fprintf ppf "layer %s failed: %s\n" (Nest.name e.Pl.nest) msg
      | Ok _ -> ())
    entries;
  let failures =
    List.concat_map
      (fun (e : Pl.entry) ->
        match e.Pl.result with Ok r -> r.O.failures | Error _ -> [])
      entries
  in
  if failures <> [] then begin
    Format.fprintf ppf "quarantined %d pair(s) across layers:@."
      (List.length failures);
    Format.fprintf ppf "%a" Robust.pp_summary failures
  end;
  match Pl.dominant_arch objective entries with
  | Error msg -> Format.fprintf ppf "dominant architecture failed: %s\n" msg
  | Ok arch ->
    Format.fprintf ppf "dominant-layer architecture: %a@.@." Arch.pp arch;
    Format.fprintf ppf "%-10s %16s %16s\n" "layer" "layer-wise" "shared-arch";
    List.iter
      (fun (e : Pl.entry) ->
        let name = Nest.name e.Pl.nest in
        let value (m : Evaluate.t option) =
          match (m, objective) with
          | Some m, F.Energy -> Printf.sprintf "%.2f pJ/MAC" m.Evaluate.energy_per_mac
          | Some m, F.Delay -> Printf.sprintf "%.1f IPC" m.Evaluate.ipc
          | Some m, F.Edp ->
            Printf.sprintf "%.3g pJ*cyc" (m.Evaluate.energy_pj *. m.Evaluate.cycles)
          | None, _ -> "-"
        in
        let shared =
          match O.dataflow ~config tech arch objective e.Pl.nest with
          | Ok r -> Some r.O.outcome.I.metrics
          | Error _ -> None
        in
        Format.fprintf ppf "%-10s %16s %16s\n" name
          (value (Pl.metrics e))
          (value shared))
      entries
