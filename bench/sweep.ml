(* Sequential-vs-parallel wall time of the optimizer sweep.

   Runs the full Optimize sweep (GP per permutation choice x window
   placement, then integerization) on one layer for each requested jobs
   setting, reports wall time and speedup over jobs = 1, and checks that
   every run returns a bit-identical report — the determinism guarantee
   of the shared domain pool (Exec.Par preserves order; ranking totally
   orders candidates by objective).

   With --shards N the harness additionally times the sharded path
   (DESIGN §12): N journaled --shard I/N runs, then the shard journals
   concatenated into one and resumed — checking the resumed report is
   identical to the unsharded one — and with --out FILE records the
   numbers as a flat BENCH_*.json for tools/perfdiff.sh.

   Usage:
     dune exec bench/sweep.exe                       # resnet-2, jobs 1,2,4
     dune exec bench/sweep.exe -- --layer resnet-8 --jobs 1,4,8
     dune exec bench/sweep.exe -- --codesign --repeat 3
     dune exec bench/sweep.exe -- --shards 4 --out BENCH_sweep.json *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module Arch = Archspec.Arch
module Conv = Workload.Conv
module Evaluate = Accmodel.Evaluate

(* This executable is itself compilation unit [Sweep], which shadows the
   sweep library's alias module; its members are reached through dune's
   mangled per-module names instead. *)
module Partition = Sweep__Partition

let tech = Archspec.Technology.table3

type options = {
  layer : string;
  jobs : int list;
  codesign : bool;
  repeat : int;
  max_choices : int;
  shards : int option;
  out : string option;
}

let parse_args () =
  let layer = ref "resnet-2" in
  let jobs = ref [ 1; 2; 4 ] in
  let codesign = ref false in
  let repeat = ref 1 in
  let max_choices = ref Thistle.Optimize.default_config.O.max_choices in
  let shards = ref None in
  let out = ref None in
  let int_arg flag s =
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ ->
      Printf.eprintf "%s: invalid value %S, expected a positive integer\n" flag s;
      exit 2
  in
  let rec go = function
    | [] -> ()
    | "--layer" :: name :: rest ->
      layer := name;
      go rest
    | "--jobs" :: spec :: rest ->
      jobs := List.map (int_arg "--jobs") (String.split_on_char ',' spec);
      go rest
    | "--codesign" :: rest ->
      codesign := true;
      go rest
    | "--repeat" :: n :: rest ->
      repeat := int_arg "--repeat" n;
      go rest
    | "--max-choices" :: n :: rest ->
      max_choices := int_arg "--max-choices" n;
      go rest
    | "--shards" :: n :: rest ->
      shards := Some (int_arg "--shards" n);
      go rest
    | "--out" :: path :: rest ->
      out := Some path;
      go rest
    | arg :: _ ->
      Printf.eprintf
        "unknown argument %s (expected --layer NAME, --jobs N,N,..., --codesign, \
         --repeat N, --max-choices N, --shards N, --out FILE)\n"
        arg;
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  {
    layer = !layer;
    jobs = !jobs;
    codesign = !codesign;
    repeat = !repeat;
    max_choices = !max_choices;
    shards = !shards;
    out = !out;
  }

(* Flat BENCH_*.json pairs for tools/perfdiff.sh: *wall_s keys are
   lower-is-better, [speedup] higher-is-better, the rest informational. *)
let json : (string * string) list ref = ref []
let record key value = json := (key, value) :: !json
let record_float key v = record key (Printf.sprintf "%.6g" v)

let write_json path =
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc "  %S: %s" k v)
    (List.rev !json);
  output_string oc "\n}\n";
  close_out oc

let () =
  let options = parse_args () in
  let nest =
    match Workload.Zoo.find options.layer with
    | layer -> Conv.to_nest layer
    | exception Not_found ->
      Printf.eprintf "unknown layer %S; see `thistle layers'\n" options.layer;
      exit 2
  in
  let run_once config =
    if options.codesign then
      O.codesign ~config tech ~area_budget:(Arch.eyeriss_area tech) F.Energy nest
    else O.dataflow ~config tech Arch.eyeriss F.Energy nest
  in
  let base_config jobs =
    { O.default_config with O.jobs; max_choices = options.max_choices }
  in
  let run jobs =
    let config = base_config jobs in
    let t0 = Unix.gettimeofday () in
    let result =
      let rec loop k last =
        if k = 0 then last
        else
          let r = run_once config in
          loop (k - 1) (Some r)
      in
      loop options.repeat None
    in
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int options.repeat in
    (dt, result)
  in
  Printf.printf "optimizer sweep: layer %s, %s, %d recognized CPU(s)%s\n" options.layer
    (if options.codesign then "codesign" else "dataflow (Eyeriss)")
    (Domain.recommended_domain_count ())
    (if options.repeat > 1 then Printf.sprintf ", best-effort mean of %d runs" options.repeat
     else "");
  record "layer" (Printf.sprintf "%S" options.layer);
  record "max_choices" (string_of_int options.max_choices);
  Printf.printf "%6s %12s %9s %10s\n" "jobs" "wall s" "speedup" "identical";
  let baseline = ref None in
  let reference = ref None in
  let best_speedup = ref 1.0 in
  List.iter
    (fun jobs ->
      let dt, result = run jobs in
      let speedup =
        match !baseline with
        | None ->
          baseline := Some dt;
          1.0
        | Some t1 -> t1 /. dt
      in
      if speedup > !best_speedup then best_speedup := speedup;
      let identical =
        match (!reference, result) with
        | None, r ->
          reference := Some r;
          "-"
        | Some r0, r -> if r0 = r then "yes" else "NO"
      in
      record_float (Printf.sprintf "jobs%d_wall_s" jobs) dt;
      Printf.printf "%6d %12.3f %9.2fx %10s\n%!" jobs dt speedup identical)
    options.jobs;
  record_float "speedup" !best_speedup;
  (match !reference with
  | Some (Some (Ok r)) ->
    let m = r.O.outcome.I.metrics in
    Printf.printf "\nreport: %d choices solved, %.2f pJ/MAC, IPC %.1f\n"
      r.O.choices_solved m.Evaluate.energy_per_mac m.Evaluate.ipc
  | Some (Some (Error msg)) -> Printf.printf "\noptimization failed: %s\n" msg
  | Some None | None -> ());
  (* Sharded path: N journaled shard runs, then their journals
     concatenated and resumed — the resumed report must match the
     unsharded one structurally (the CLI smoke checks byte-identity of
     the rendered output; here the reports are compared directly).  The
     [merge_*] keys time that combination step. *)
  (match options.shards with
  | None -> ()
  | Some count ->
    let jobs = List.fold_left max 1 options.jobs in
    let config = base_config jobs in
    let dir = Filename.temp_file "thistle_bench_sweep" ".d" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Sys.rmdir dir with Sys_error _ -> ())
    @@ fun () ->
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (Unix.gettimeofday () -. t0, r)
    in
    let t_full, full = time (fun () -> run_once config) in
    record_float "unsharded_wall_s" t_full;
    Printf.printf "\nsharded path (%d shards, jobs %d):\n" count jobs;
    Printf.printf "  unsharded          %8.3f s\n" t_full;
    let shard_files, t_shard_max =
      List.fold_left
        (fun (files, worst) i ->
          let path = Filename.concat dir (Printf.sprintf "s%d.jsonl" i) in
          let shard = { Partition.index = i; count } in
          let dt, _ =
            time (fun () ->
                run_once { config with O.shard; journal = Some path })
          in
          record_float (Printf.sprintf "shard%d_wall_s" i) dt;
          Printf.printf "  shard %d/%d          %8.3f s\n" i count dt;
          (path :: files, Float.max worst dt))
        ([], 0.0)
        (List.init count (fun i -> i + 1))
    in
    record_float "shards_max_wall_s" t_shard_max;
    let combined = Filename.concat dir "combined.jsonl" in
    let t_merge, resumed =
      time (fun () ->
          (* [shard_files] lists the last shard first. *)
          Out_channel.with_open_bin combined (fun oc ->
              List.iter
                (fun f ->
                  Out_channel.output_string oc (In_channel.with_open_bin f In_channel.input_all))
                shard_files);
          run_once { config with O.journal = Some combined; resume = true })
    in
    record_float "merge_resume_wall_s" t_merge;
    let identical = full = resumed in
    record "merged_identical" (if identical then "1" else "0");
    Printf.printf "  concat + resume    %8.3f s\n" t_merge;
    Printf.printf "  shards max %.3f s vs unsharded %.3f s; resumed report %s\n"
      t_shard_max t_full
      (if identical then "identical" else "DIFFERS");
    if not identical then exit 1);
  match options.out with
  | None -> ()
  | Some path ->
    write_json path;
    Printf.printf "\nwrote %s\n" path
