(* Command-line interface to the Thistle optimizer and its substrates. *)

open Cmdliner

module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module An = Analysis
module S = Mapper.Search
module Arch = Archspec.Arch
module Conv = Workload.Conv
module Nest = Workload.Nest
module Evaluate = Accmodel.Evaluate
module P = Serve.Protocol

let ( let* ) = Result.bind

let fail msg =
  prerr_endline msg;
  1

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                   *)
(* ------------------------------------------------------------------ *)

let setup_logs =
  let setup verbose =
    (* Optimizer sweeps log from pool worker domains; serialize the
       reporter so lines never interleave. *)
    Logs.set_reporter (Exec.Reporter.mutexed (Logs_fmt.reporter ()));
    Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning)
  in
  Term.(const setup $ Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Verbose logging."))

let layer_arg =
  let doc = "Zoo layer name (e.g. resnet-2, yolo-7); `thistle layers' lists all 41." in
  Arg.(required & opt (some string) None & info [ "layer" ] ~docv:"NAME" ~doc)

let objective_arg =
  let objective_conv =
    Arg.enum [ ("energy", F.Energy); ("delay", F.Delay); ("edp", F.Edp) ]
  in
  Arg.(
    value
    & opt objective_conv F.Energy
    & info [ "objective" ] ~docv:"OBJ"
        ~doc:"Optimization criterion: $(b,energy), $(b,delay) or $(b,edp).")

let arch_args =
  let pes =
    Arg.(
      value
      & opt int Arch.eyeriss.Arch.pe_count
      & info [ "pes" ] ~docv:"P" ~doc:"Number of PEs.")
  in
  let regs =
    Arg.(
      value
      & opt int Arch.eyeriss.Arch.registers_per_pe
      & info [ "regs" ] ~docv:"R" ~doc:"Registers per PE (words).")
  in
  let sram =
    Arg.(
      value
      & opt int Arch.eyeriss.Arch.sram_words
      & info [ "sram" ] ~docv:"S" ~doc:"SRAM capacity (16-bit words).")
  in
  Term.(const (fun pes regs sram -> P.arch ~name:"cli" ~pes ~regs ~sram) $ pes $ regs $ sram)

let node_arg =
  Arg.(
    value
    & opt float Archspec.Technology.reference_node_nm
    & info [ "node" ] ~docv:"NM"
        ~doc:"Process node in nm; Table III's 45 nm values are scaled \
              first-order (on-chip area and energy by the squared ratio).")

let top_choices_arg =
  Arg.(
    value
    & opt int P.default_opts.P.top_choices
    & info [ "top-choices" ] ~docv:"K"
        ~doc:"Number of best continuous solutions to integerize and model-evaluate.")

let jobs_arg =
  Arg.(
    value
    & opt int O.default_config.O.jobs
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the optimizer sweep (default: recognized CPUs; 1 runs \
           the exact sequential path).  The reported mapping and metrics are \
           identical for any value.")

let sweep_max_choices_arg =
  Arg.(
    value
    & opt int P.default_opts.P.max_choices
    & info [ "max-choices" ] ~docv:"N"
        ~doc:"Cap on enumerated permutation choices per layer.")

let area_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "area" ] ~docv:"UM2"
        ~doc:"Chip-area budget in um^2 (defaults to the Eyeriss area).")

let pipeline_arg =
  let doc = "DNN pipeline: $(b,resnet18), $(b,yolo9000), $(b,alexnet) or $(b,vgg16)." in
  Arg.(
    required
    & opt (some (Arg.enum (List.map (fun (n, _) -> (n, n)) Workload.Zoo.pipelines))) None
    & info [ "pipeline" ] ~docv:"NAME" ~doc)

(* ------------------------------------------------------------------ *)
(* Requests: one set of terms for the local subcommands and `client`  *)
(* ------------------------------------------------------------------ *)

let request_opts =
  let build top_choices max_choices node_nm = { P.top_choices; max_choices; node_nm } in
  Term.(const build $ top_choices_arg $ sweep_max_choices_arg $ node_arg)

let optimize_request =
  let build layer objective arch opts =
    Result.map (fun arch -> P.Optimize { layer; objective; arch; opts }) arch
  in
  Term.(const build $ layer_arg $ objective_arg $ arch_args $ request_opts)

let codesign_request area =
  let build layer objective area opts = Ok (P.Codesign { layer; objective; area; opts }) in
  Term.(const build $ layer_arg $ objective_arg $ area $ request_opts)

(* A pipeline request carries the default --top-choices, which the
   resolver ignores, and the default node, so [thistle pipeline] and
   [thistle client pipeline] take the same options. *)
let pipeline_request =
  let build pipeline objective max_choices =
    Ok (P.Pipeline { pipeline; objective; opts = { P.default_opts with P.max_choices } })
  in
  Term.(const build $ pipeline_arg $ objective_arg $ sweep_max_choices_arg)

(* ------------------------------------------------------------------ *)
(* Configuration: the daemon's base config plus option groups         *)
(* ------------------------------------------------------------------ *)

(* Everything a request does not carry: parallelism.  [thistle serve]
   runs with exactly this config as its base. *)
let base_config = Term.(const (fun jobs -> { O.default_config with O.jobs }) $ jobs_arg)

(* Communication-model knobs (DESIGN §16). *)
let comm_opts =
  let comm_arg =
    Arg.(
      value
      & opt
          (Arg.enum
             [
               ("comm", Archspec.Link.Comm_aware);
               ("overlapped", Archspec.Link.Overlapped);
             ])
          Archspec.Link.Comm_aware
      & info [ "comm-model" ] ~docv:"MODEL"
          ~doc:
            "Communication model for the delay constraints and candidate \
             scoring: $(b,comm) (default) bounds each link occupancy — DRAM \
             and NoC reads and writes, the per-PE register operand stream — \
             separately with per-burst overhead folded in; $(b,overlapped) \
             keeps the historical aggregate SRAM/DRAM bandwidth form, \
             bit-identical to earlier releases.")
  in
  let contention_arg =
    Arg.(
      value & flag
      & info [ "contention" ]
          ~doc:
            "Serialize the DRAM and NoC channels when scoring integer \
             candidates: the shared bus is busy for the sum of their \
             occupancies rather than the maximum.  Only meaningful under \
             $(b,--comm-model comm).")
  in
  let build comm contention config = { config with O.comm; contention } in
  Term.(const build $ comm_arg $ contention_arg)

(* [base_config] with the communication-model options applied. *)
let comm_config = Term.(const ( |> ) $ base_config $ comm_opts)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record nested timing spans (formulate/solve/integerize/evaluate) and write \
           them as JSONL to $(docv).  Tracing never changes results.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Record counters, gauges and timing histograms and write them as one JSON \
           object to $(docv).")

(* Writes a file the command was asked for.  A path that cannot be
   written is one message naming it, never an uncaught exception:
   [Sys_error] messages from opening a file already name it; those from
   writing an open channel do not. *)
let write_output file write =
  match open_out file with
  | exception Sys_error m -> Error ("cannot write " ^ m)
  | oc -> (
    match
      write oc;
      close_out oc
    with
    | () -> Ok ()
    | exception Sys_error m ->
      close_out_noerr oc;
      Error (Printf.sprintf "cannot write %s: %s" file m))

(* Runs [f] with tracing/metrics recording enabled per the CLI flags and
   writes the requested files even when [f] raises.  A file that cannot
   be written fails the command (exit 1) after the others are written. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Obs.Trace.start ();
  if metrics <> None then begin
    Obs.Metrics.reset ();
    Obs.Metrics.enable ()
  end;
  let written = ref true in
  let check = function
    | Ok () -> ()
    | Error msg ->
      prerr_endline msg;
      written := false
  in
  let finish () =
    Option.iter
      (fun file ->
        Obs.Trace.stop ();
        check (write_output file Obs.Trace.export))
      trace;
    Option.iter
      (fun file ->
        Obs.Metrics.disable ();
        check
          (write_output file (fun oc ->
               output_string oc (Obs.Metrics.to_json (Obs.Metrics.snapshot ()));
               output_char oc '\n')))
      metrics
  in
  let status = Fun.protect ~finally:finish f in
  if !written then status else 1

(* --emit pairs the directory with the request's --node, which arch.yaml
   records. *)
let emit_arg =
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"DIR"
          ~doc:"Write Timeloop-style problem/mapping/arch YAML files to $(docv).")
  in
  let pair dir node_nm = Option.map (fun dir -> (dir, node_nm)) dir in
  Term.(const pair $ dir $ node_arg)

let emit_code_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-code" ] ~docv:"FILE"
        ~doc:"Write the tiled pseudocode of the chosen mapping to $(docv).")

let resolve base request = Result.bind request (P.resolve base)

(* The local-only --emit/--emit-code files of one solved layer.  --emit
   writes the three documents [Specs.Timeloop.write_bundle] writes, each
   through [write_output]; like [open_out]'s, [Sys.mkdir]'s error names
   the directory. *)
let write_layer_files ?emit ?emit_code tech nest outcome =
  let* () =
    match emit with
    | None -> Ok ()
    | Some (dir, node_nm) ->
      let yaml name doc =
        write_output (Filename.concat dir name) (fun oc ->
            output_string oc (Specs.Yaml.emit doc))
      in
      let* () =
        match if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with
        | () -> Ok ()
        | exception Sys_error m -> Error ("cannot write " ^ m)
      in
      let* () = yaml "problem.yaml" (Specs.Timeloop.problem_to_yaml nest) in
      let* () = yaml "mapping.yaml" (Specs.Timeloop.mapping_to_yaml outcome.I.mapping) in
      let* () =
        yaml "arch.yaml" (Specs.Timeloop.architecture_to_yaml ~node_nm tech outcome.I.arch)
      in
      Ok (Format.printf "wrote %s/{problem,mapping,arch}.yaml@." dir)
  in
  match emit_code with
  | None -> Ok ()
  | Some file -> (
    match Codegen.Emit.pseudocode nest outcome.I.mapping with
    | Error msg -> Ok (Format.printf "pseudocode emission failed: %s@." msg)
    | Ok code ->
      let* () = write_output file (fun oc -> output_string oc code) in
      Ok (Format.printf "wrote %s@." file))

(* Prints the daemon's reply to a resolved request — the same bytes
   `thistle client` prints, by construction (DESIGN §14) — and, for one
   layer, the local-only --emit/--emit-code files. *)
let reply ?emit ?emit_code (r : P.resolved) =
  match r.P.run with
  | P.Layers _ -> (
    match P.render r with
    | Ok body ->
      print_string body;
      0
    | Error msg -> fail msg)
  | P.Layer { nest; _ } -> (
    match P.solve r with
    | Error msg -> fail msg
    | Ok report -> (
      print_string (P.body r report);
      match write_layer_files ?emit ?emit_code r.P.tech nest report.O.outcome with
      | Ok () -> 0
      | Error msg -> fail msg))

(* optimize, codesign and pipeline: resolve, then run under the
   requested tracing and metrics recording. *)
let run_traced ?emit ?emit_code request base trace metrics =
  match resolve base request with
  | Error msg -> fail msg
  | Ok r -> with_obs ~trace ~metrics @@ fun () -> reply ?emit ?emit_code r

(* ------------------------------------------------------------------ *)
(* Subcommands                                                        *)
(* ------------------------------------------------------------------ *)

let layers_cmd =
  let run () =
    Printf.printf "%-10s %6s %6s %6s %4s %7s %12s\n" "layer" "K" "C" "H=W" "RS" "stride"
      "MACs";
    List.iter
      (fun l ->
        Printf.printf "%-10s %6d %6d %6d %4d %7d %12.4g\n" l.Conv.layer_name
          l.Conv.out_channels l.Conv.in_channels l.Conv.in_height l.Conv.kernel
          l.Conv.stride (Conv.macs l))
      Workload.Zoo.all_layers;
    0
  in
  Cmd.v
    (Cmd.info "layers"
       ~doc:
         "List the 41 zoo layers: Table II's Yolo-9000 and ResNet-18, then AlexNet \
          and VGG-16.")
    Term.(const (fun () () -> run ()) $ setup_logs $ const ())

let optimize_cmd =
  let run () request emit emit_code = run_traced ?emit ?emit_code request in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Optimize the dataflow of one layer for a fixed architecture (Fig. 4 / Fig. 7 \
          setting).")
    Term.(
      const run $ setup_logs $ optimize_request $ emit_arg $ emit_code_arg
      $ comm_config
      $ trace_arg $ metrics_out_arg)

let codesign_cmd =
  let run () request emit emit_code = run_traced ?emit ?emit_code request in
  Cmd.v
    (Cmd.info "codesign"
       ~doc:
         "Jointly optimize architecture (PEs, registers, SRAM) and dataflow for one \
          layer under an area budget (Fig. 5 setting).")
    Term.(
      const run $ setup_logs $ codesign_request area_arg $ emit_arg $ emit_code_arg
      $ comm_config
      $ trace_arg $ metrics_out_arg)

let mapper_cmd =
  let trials_arg =
    Arg.(value & opt int 30000 & info [ "trials" ] ~docv:"N" ~doc:"Trial budget.")
  in
  let victory_arg =
    Arg.(
      value & opt int 15000
      & info [ "victory" ] ~docv:"N" ~doc:"Stop after $(docv) non-improving trials.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Search domains (threads); the trial budget is split across them.")
  in
  let run () layer objective arch trials victory seed domains trace metrics =
    match
      let* () =
        if trials < 1 then Error "--trials must be >= 1"
        else if victory < 1 then Error "--victory must be >= 1"
        else Ok ()
      in
      let* arch = arch in
      let* nest = P.nest_of_layer layer in
      Ok (arch, nest)
    with
    | Error msg -> fail msg
    | Ok (arch, nest) ->
      with_obs ~trace ~metrics @@ fun () ->
      let criterion =
        match objective with
        | F.Energy -> S.Min_energy
        | F.Delay -> S.Min_delay
        | F.Edp -> S.Min_edp
      in
      let config = { S.max_trials = trials; victory_condition = victory; seed } in
      (* No --node flag: the Table III values as-is. *)
      let tech = Archspec.Technology.table3 in
      (* Scored under the optimizer's delay model, as Thistle is. *)
      let result =
        S.search_parallel ~config ~domains ~comm:O.default_config.O.comm tech arch
          criterion nest
      in
      Printf.printf "trials: %d (%d valid, %d improvements)\n" result.S.trials
        result.S.valid_trials result.S.improvements;
      (match result.S.best with
      | None -> print_endline "no valid mapping found"
      | Some (mapping, metrics) ->
        Format.printf "best mapping:@.%a@." Mapspace.Mapping.pp mapping;
        Format.printf "metrics:@.%a@." Evaluate.pp metrics);
      0
  in
  Cmd.v
    (Cmd.info "mapper"
       ~doc:
         "Search-based mapping exploration (the Timeloop-Mapper-style baseline) on a \
          fixed architecture.")
    Term.(
      const run $ setup_logs $ layer_arg $ objective_arg $ arch_args $ trials_arg
      $ victory_arg $ seed_arg $ domains_arg $ trace_arg $ metrics_out_arg)

(* ------------------------------------------------------------------ *)
(* Formulation audit                                                  *)
(* ------------------------------------------------------------------ *)

let audit_layer_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "layer" ] ~docv:"NAME"
        ~doc:"Audit only this layer (default: all 41 zoo layers; see `thistle layers').")

let audit_max_choices_arg =
  Arg.(
    value
    & opt int 32
    & info [ "max-choices" ] ~docv:"N"
        ~doc:"Cap on permutation choices audited per layer and mode.")

(* Energy programs have no delay rows, so only Delay and EDP differ
   between the two delay models. *)
let audited_objectives =
  [
    (F.Energy, O.default_config.O.comm);
    (F.Delay, Archspec.Link.Comm_aware);
    (F.Delay, Archspec.Link.Overlapped);
    (F.Edp, Archspec.Link.Comm_aware);
    (F.Edp, Archspec.Link.Overlapped);
  ]

exception Unformulable of string

(* The audit loop: [check] every program the optimizer would formulate
   per audited layer — both arch modes, every (objective, delay model)
   of [audited_objectives], every choice within the cap and every
   placement — with layers on [jobs] domains.  Returns each layer with
   its checks' results in formulation order.  A program that cannot be
   built (a coefficient out of the float range) refuses the whole run,
   as the optimizer's formulate stage does; the error is the first such
   program's, in audit order. *)
let audit ~layer ~max_choices ~node ~jobs arch check =
  let* () = if max_choices < 1 then Error "max_choices must be >= 1" else Ok () in
  let* tech = P.tech_of_node node in
  let* area_budget = P.area_budget tech None in
  let* nests =
    match layer with
    | None -> Ok (List.map Conv.to_nest Workload.Zoo.all_layers)
    | Some name -> Result.map (fun nest -> [ nest ]) (P.nest_of_layer name)
  in
  let programs nest =
    let plan = Thistle.Permutations.enumerate ~max_choices nest in
    List.concat_map
      (fun mode ->
        List.concat_map
          (fun (objective, comm) ->
            List.concat_map
              (fun choice_vol ->
                List.map
                  (fun placement ->
                    match F.build ~placement ~comm tech mode objective plan choice_vol with
                    | instance -> check instance
                    | exception Invalid_argument msg -> raise (Unformulable msg))
                  plan.Thistle.Permutations.placements)
              plan.Thistle.Permutations.choices)
          audited_objectives)
      [ F.Fixed arch; F.Codesign { area_budget } ]
  in
  match Exec.Par.map ~jobs (fun nest -> (nest, programs nest)) nests with
  | results -> Ok results
  | exception Unformulable msg -> Error ("audit: cannot formulate " ^ msg)

(* One audited program: its lint (and certificate) diagnostics, its
   presolve verdict, and the verdict's disagreements — a rejected proof
   or, with --solve, a verdict the solution contradicts. *)
type audited = {
  diags : An.Diagnostic.t list;
  pruned : int;
  dropped : int;
  disagreements : string list;
}

let audit_cmd =
  let solve_arg =
    Arg.(
      value & flag
      & info [ "solve" ]
          ~doc:
            "Also solve every audited program once, at the sweep's tolerance, and \
             check the solution: its certificate (finite point, constraint \
             violations), and the presolve verdict against it — a solved \
             presolve-infeasible program, a solution escaping the propagated box, \
             or an eliminated constraint active at the optimum is a disagreement. \
             Much slower.")
  in
  let run () layer max_choices solve arch node jobs =
    let check (instance : F.instance) =
      let problem = instance.F.problem in
      let t = An.Presolve.analyze problem in
      let pruned, dropped, rejected =
        match t.An.Presolve.verdict with
        | An.Presolve.Feasible red -> (0, List.length red.An.Presolve.dropped, [])
        | An.Presolve.Infeasible proof ->
          let rejected =
            match An.Certificate.check_prune problem proof with
            | Ok () -> []
            | Error m ->
              [
                Printf.sprintf "%s: proof checker rejected the pruning proof: %s"
                  instance.F.provenance m;
              ]
          in
          (1, 0, rejected)
      in
      (* One solve at the sweep's tolerance serves both post-solve
         checks: the certificate and the presolve differential check. *)
      let cert_diags, contradicted =
        if not solve then ([], [])
        else
          let sol = Gp.Solver.solve ~tol:O.default_config.O.gp_tol problem in
          match sol.Gp.Solver.status with
          | Gp.Solver.Infeasible -> ([], [])
          | Gp.Solver.Optimal | Gp.Solver.Iteration_limit ->
            let cert =
              An.Certificate.check ~provenance:instance.F.provenance problem
                (F.solution_env instance sol)
            in
            ( cert.An.Certificate.diagnostics,
              if O.usable_solution instance sol then O.presolve_disagreements instance t sol
              else [] )
      in
      {
        diags = F.lint instance @ cert_diags;
        pruned;
        dropped;
        disagreements = rejected @ contradicted;
      }
    in
    match
      let* arch = arch in
      audit ~layer ~max_choices ~node ~jobs arch check
    with
    | Error msg -> fail msg
    | Ok results ->
      let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs in
      let pruned r = r.pruned and dropped r = r.dropped in
      Printf.printf "%-10s %14s %8s %8s\n" "layer" "formulations" "pruned" "dropped";
      List.iter
        (fun (nest, rs) ->
          Printf.printf "%-10s %14d %8d %8d\n" (Nest.name nest) (List.length rs)
            (sum pruned rs) (sum dropped rs))
        results;
      let all = List.concat_map snd results in
      let diags = List.concat_map (fun r -> r.diags) all in
      let errors, warnings = An.Diagnostic.count diags in
      if diags <> [] then Format.printf "%a@." An.Diagnostic.pp_table diags;
      let disagreements = List.concat_map (fun r -> r.disagreements) all in
      List.iter (Printf.printf "disagreement: %s\n") disagreements;
      Printf.printf
        "total: %d formulations across %d layers: %d errors, %d warnings, %d pruned, %d \
         dropped, %d disagreements\n"
        (List.length all) (List.length results) errors warnings (sum pruned all)
        (sum dropped all) (List.length disagreements);
      if errors > 0 || disagreements <> [] then 1 else 0
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Audit the formulation layer: build every program the optimizer would (both \
          arch modes, every objective and delay model, permutation choice and \
          placement, per layer) and, without solving, run the DGP discipline and \
          unit checks and interval-propagation presolve, re-checking every \
          infeasibility proof.  Reports prune/drop counts per layer and fails on any \
          error or disagreement.")
    Term.(
      const run $ setup_logs $ audit_layer_arg $ audit_max_choices_arg $ solve_arg
      $ arch_args $ node_arg $ jobs_arg)

let pipeline_cmd =
  let run () request = run_traced request in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:
         "Layer-wise co-design of a whole DNN pipeline, then re-optimization for the \
          dominant layer's shared architecture (Fig. 6 / Fig. 8 flow).")
    Term.(
      const run $ setup_logs
      $ pipeline_request
      $ comm_config
      $ trace_arg $ metrics_out_arg)

(* ------------------------------------------------------------------ *)
(* Serve daemon and client (DESIGN §14)                               *)
(* ------------------------------------------------------------------ *)

let addr_args =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port on 127.0.0.1 (the daemon accepts 0 for an ephemeral port).")
  in
  let build socket port =
    match (socket, port) with
    | Some path, None -> Ok (`Unix path)
    | None, Some port when port < 0 || port > 65535 -> Error "--port must be in 0..65535"
    | None, Some port -> Ok (`Tcp port)
    | None, None -> Error "one of --socket or --port is required"
    | Some _, Some _ -> Error "--socket and --port are mutually exclusive"
  in
  Term.(const build $ socket_arg $ port_arg)

let serve_cmd =
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persist every rendered answer in the content-addressed result store \
             rooted at $(docv); a repeated request — across connections, restarts \
             and solver-config-compatible daemons — replays the stored bytes.")
  in
  let max_inflight_arg =
    Arg.(
      value
      & opt int 8
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission limit: requests arriving while $(docv) others are being \
             served are rejected immediately with a structured response instead of \
             queueing.")
  in
  let run () addr store max_inflight base =
    match addr with
    | Error msg -> fail msg
    | Ok addr -> (
      let where =
        match addr with
        | `Unix path -> Serve.Server.Unix_sock path
        | `Tcp port -> Serve.Server.Tcp port
      in
      let config =
        { (Serve.Server.default where) with
          Serve.Server.store_dir = store;
          base;
          max_inflight;
        }
      in
      match Serve.Server.start config with
      | Error msg -> fail msg
      | Ok server ->
        (match Serve.Server.address server with
        | Unix.ADDR_UNIX path -> Printf.printf "listening on %s\n%!" path
        | Unix.ADDR_INET (_, port) ->
          Printf.printf "listening on 127.0.0.1:%d\n%!" port);
        Serve.Server.wait server;
        0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the co-design daemon: answer optimize/codesign/pipeline/metrics \
          requests over a Unix or TCP socket, solving on the shared domain pool and \
          replaying repeated requests byte-identically from the $(b,--store).")
    Term.(
      const run $ setup_logs $ addr_args $ store_arg $ max_inflight_arg $ base_config)

let client_cmd =
  let run_request () addr request =
    match
      let* addr = addr in
      let* request = request in
      Ok (addr, request)
    with
    | Error msg -> fail msg
    | Ok (addr, request) -> (
      let sockaddr =
        match addr with
        | `Unix path -> Serve.Client.unix_addr path
        | `Tcp port -> Serve.Client.tcp_addr port
      in
      match Serve.Client.connect sockaddr with
      | Error msg -> fail msg
      | Ok client -> (
        let result = Serve.Client.request client request in
        Serve.Client.close client;
        match result with
        | Error msg -> fail msg
        | Ok (P.Payload { body; _ }) ->
          print_string body;
          0
        | Ok (P.Refused { kind; message }) ->
          let kind_name =
            match kind with
            | P.Rejected -> "rejected"
            | P.Bad_request -> "bad request"
            | P.Failed -> "failed"
          in
          Printf.eprintf "%s: %s\n" kind_name message;
          1))
  in
  let client name doc request =
    Cmd.v (Cmd.info name ~doc) Term.(const run_request $ setup_logs $ addr_args $ request)
  in
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Send one request to a running $(b,thistle serve) daemon and print the \
          response body — byte-identical to the corresponding local subcommand.")
    [
      client "optimize" "Ask the daemon to optimize one layer on a fixed architecture."
        optimize_request;
      client "codesign" "Ask the daemon to co-design one layer under an area budget."
        (codesign_request area_arg);
      client "pipeline" "Ask the daemon for a whole-pipeline co-design run."
        pipeline_request;
      client "metrics" "Dump the daemon's counter snapshot as JSON."
        (Term.const (Ok P.Metrics));
    ]

let main =
  let info =
    Cmd.info "thistle" ~version:"1.0.0"
      ~doc:
        "Comprehensive accelerator-dataflow co-design for CNNs via geometric \
         programming (CGO 2022 reproduction)."
  in
  Cmd.group info
    [
      layers_cmd;
      optimize_cmd;
      codesign_cmd;
      mapper_cmd;
      pipeline_cmd;
      audit_cmd;
      serve_cmd;
      client_cmd;
    ]

let () = exit (Cmd.eval' main)
