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
  let doc = "Layer name from Table II (e.g. resnet-2, yolo-7); see `thistle layers'." in
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
    Arg.(value & opt int 168 & info [ "pes" ] ~docv:"P" ~doc:"Number of PEs.")
  in
  let regs =
    Arg.(value & opt int 512 & info [ "regs" ] ~docv:"R" ~doc:"Registers per PE (words).")
  in
  let sram =
    Arg.(value & opt int 65536 & info [ "sram" ] ~docv:"S" ~doc:"SRAM capacity (16-bit words).")
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

(* A pipeline request carries the default --top-choices, which the
   resolver ignores. *)
let pipeline_opts node =
  let build max_choices node_nm = { P.default_opts with P.max_choices; node_nm } in
  Term.(const build $ sweep_max_choices_arg $ node)

let optimize_request =
  let build layer objective arch opts =
    Result.map (fun arch -> P.Optimize { layer; objective; arch; opts }) arch
  in
  Term.(const build $ layer_arg $ objective_arg $ arch_args $ request_opts)

let codesign_request area =
  let build layer objective area opts = Ok (P.Codesign { layer; objective; area; opts }) in
  Term.(const build $ layer_arg $ objective_arg $ area $ request_opts)

let pipeline_request opts =
  let build pipeline objective opts = Ok (P.Pipeline { pipeline; objective; opts }) in
  Term.(const build $ pipeline_arg $ objective_arg $ opts)

(* ------------------------------------------------------------------ *)
(* Configuration: the daemon's base config plus option groups         *)
(* ------------------------------------------------------------------ *)

(* Everything a request does not carry: parallelism, the lint and
   presolve gates, and the fault-tolerance knobs (DESIGN §11).  [thistle
   serve] runs with exactly this config as its base. *)
let base_config =
  let lint_mode_arg =
    Arg.(
      value
      & opt (Arg.enum An.Lint.modes) An.Lint.Enforce
      & info [ "lint" ] ~docv:"MODE"
          ~doc:
            "Static-analysis gate over every formulated program: $(b,enforce) fails \
             the run on any discipline or unit error, $(b,warn) logs and continues, \
             $(b,off) skips the checks.")
  in
  let presolve_arg =
    Arg.(
      value
      & opt (Arg.enum An.Presolve.modes) An.Presolve.Prune
      & info [ "presolve" ] ~docv:"MODE"
          ~doc:
            "Interval-propagation presolve over every formulated program: \
             $(b,prune) (default) skips statically infeasible pairs — each \
             carries an independently re-checked proof — and solves reduced \
             problems (monotone variables pinned, redundant constraints \
             dropped); $(b,check) solves everything and fails the run if any \
             verdict disagrees with the solver; $(b,off) disables the \
             analysis.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "solve-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Cooperative wall-clock budget per GP solve, in milliseconds, checked at \
             outer-iteration boundaries.  A solve that exceeds it retries per \
             $(b,--retries) and is then quarantined; the sweep succeeds as long as \
             any pair survives.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int O.default_config.O.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra solve attempts after a crash or deadline hit before the pair is \
             quarantined.  Retried attempts escalate the solver's initial KKT \
             regularization.")
  in
  let inject_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Robust.Inject.parse s) in
    let print ppf t = Format.pp_print_string ppf (Robust.Inject.to_string t) in
    Arg.conv (parse, print)
  in
  let inject_arg =
    Arg.(
      value
      & opt inject_conv Robust.Inject.none
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection for exercising the quarantine machinery: \
             comma-separated $(b,seed=INT) and $(b,KIND@SITE[FILTER]=PROB) clauses, \
             e.g. $(b,seed=7,crash@solve=0.2,stall@solve[resnet-2]=1).  Decisions \
             are a pure function of the spec and the work item, never of time.")
  in
  let build jobs lint presolve solve_deadline_ms retries inject =
    { O.default_config with O.jobs; lint; presolve; solve_deadline_ms; retries; inject }
  in
  Term.(
    const build $ jobs_arg $ lint_mode_arg $ presolve_arg $ deadline_arg $ retries_arg
    $ inject_arg)

(* Sharding/journaling knobs (DESIGN §12) of the sweep-running
   subcommands. *)
let sweep_opts =
  let shard_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Sweep.Partition.parse s) in
    let print ppf t = Format.pp_print_string ppf (Sweep.Partition.to_string t) in
    Arg.conv (parse, print)
  in
  let shard_arg =
    Arg.(
      value
      & opt shard_conv Sweep.Partition.full
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Own only the $(docv)-th of $(i,N) round-robin slices of the \
             (choice x placement) work-list (whole choices per shard, 1-based).  A \
             shard solves, journals and reports its own pairs; combine the shard \
             journals with $(b,thistle merge) to recover the exact unsharded \
             report.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append every completed (solved or quarantined) pair to the JSONL \
             completion journal $(docv) as it finishes, so a killed run can be \
             resumed with $(b,--resume).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay pairs recorded in $(b,--journal) (required) instead of re-solving \
             them.  Entries whose fingerprint no longer matches the formulation and \
             solver configuration are re-solved and re-journaled.")
  in
  let build shard journal resume config = { config with O.shard; journal; resume } in
  Term.(const build $ shard_arg $ journal_arg $ resume_arg)

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

(* [base_config] with each option group applied. *)
let config_with groups =
  List.fold_left (fun config group -> Term.(const ( |> ) $ config $ group)) base_config groups

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

(* Runs [f] with tracing/metrics recording enabled per the CLI flags and
   writes the requested files even when [f] raises. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Obs.Trace.start ();
  if metrics <> None then begin
    Obs.Metrics.reset ();
    Obs.Metrics.enable ()
  end;
  let finish () =
    (match trace with
    | None -> ()
    | Some file ->
      Obs.Trace.stop ();
      Obs.Trace.export_file file);
    match metrics with
    | None -> ()
    | Some file ->
      Obs.Metrics.disable ();
      let oc = open_out file in
      output_string oc (Obs.Metrics.to_json (Obs.Metrics.snapshot ()));
      output_char oc '\n';
      close_out oc
  in
  Fun.protect ~finally:finish f

let emit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit" ] ~docv:"DIR"
        ~doc:"Write Timeloop-style problem/mapping/arch YAML files to $(docv).")

let emit_code_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-code" ] ~docv:"FILE"
        ~doc:"Write the tiled pseudocode of the chosen mapping to $(docv).")

let resolve base request = Result.bind request (P.resolve base)

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
    | Ok report ->
      let o = report.O.outcome in
      print_string (P.body r report);
      Option.iter
        (fun dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Specs.Timeloop.write_bundle ~dir r.P.tech o.I.arch nest o.I.mapping;
          Format.printf "wrote %s/{problem,mapping,arch}.yaml@." dir)
        emit;
      Option.iter
        (fun file ->
          match Codegen.Emit.pseudocode nest o.I.mapping with
          | Ok code ->
            let oc = open_out file in
            output_string oc code;
            close_out oc;
            Format.printf "wrote %s@." file
          | Error msg -> Format.printf "pseudocode emission failed: %s@." msg)
        emit_code;
      0)

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
    (Cmd.info "layers" ~doc:"List the Table II workloads (ResNet-18 and Yolo-9000).")
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
      $ config_with [ sweep_opts; comm_opts ]
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
      $ config_with [ sweep_opts; comm_opts ]
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
      let result = S.search_parallel ~config ~domains tech arch criterion nest in
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
(* Formulation audits: lint and presolve                              *)
(* ------------------------------------------------------------------ *)

let audit_layer_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "layer" ] ~docv:"NAME"
        ~doc:"Audit only this layer (default: the whole Table II zoo).")

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

(* The audit loop shared by lint and presolve: [check] every program the
   optimizer would formulate per audited layer — both arch modes, every
   (objective, delay model) of [audited_objectives], every choice within
   the cap and every placement — with layers on [jobs] domains.  Returns
   each layer with its checks' results in formulation order. *)
let audit ~layer ~max_choices ~node ~jobs arch check =
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
                    check (F.build ~placement ~comm tech mode objective plan choice_vol))
                  plan.Thistle.Permutations.placements)
              plan.Thistle.Permutations.choices)
          audited_objectives)
      [ F.Fixed arch; F.Codesign { area_budget } ]
  in
  Ok (Exec.Par.map ~jobs (fun nest -> (nest, programs nest)) nests)

let lint_cmd =
  let certify_arg =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Also solve every audited program and check the solution certificate \
             (KKT residual, constraint violations) — much slower.")
  in
  let run () layer max_choices certify node jobs =
    let certify_diags (instance : F.instance) =
      let solution = Gp.Solver.solve instance.F.problem in
      match solution.Gp.Solver.status with
      | Gp.Solver.Infeasible | Gp.Solver.Deadline_exceeded -> []
      | Gp.Solver.Optimal | Gp.Solver.Iteration_limit ->
        let cert =
          An.Certificate.check ~provenance:instance.F.provenance instance.F.problem
            (F.solution_env instance solution)
        in
        cert.An.Certificate.diagnostics
    in
    let check instance =
      let ds = F.lint instance in
      if certify then ds @ certify_diags instance else ds
    in
    let arch = Arch.make ~name:"lint" ~pes:168 ~registers:512 ~sram_words:65536 in
    match audit ~layer ~max_choices ~node ~jobs arch check with
    | Error msg -> fail msg
    | Ok results ->
      let total = List.fold_left (fun acc (_, ds) -> acc + List.length ds) 0 results in
      let diags = List.concat_map (fun (_, ds) -> List.concat ds) results in
      let errors, warnings = An.Diagnostic.count diags in
      if diags <> [] then Format.printf "%a@." An.Diagnostic.pp_table diags;
      Format.printf "linted %d formulations across %d layers: %d errors, %d warnings@."
        total (List.length results) errors warnings;
      if errors > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Audit the formulation layer: build every program the optimizer would (all \
          modes, objectives, delay models, permutation choices and placements, per \
          layer) and run the DGP discipline and unit checks without solving.")
    Term.(
      const run $ setup_logs $ audit_layer_arg $ audit_max_choices_arg $ certify_arg
      $ node_arg $ jobs_arg)

let presolve_cmd =
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also solve every audited program and differentially validate the \
             presolve verdicts against the solver: a solved presolve-infeasible \
             program, a solution escaping the propagated box, or an eliminated \
             constraint active at an optimum is a disagreement — much slower.")
  in
  let run () layer max_choices check arch node jobs =
    (* Per program: (pruned, fixed, dropped, disagreements). *)
    let verdict (instance : F.instance) =
      let problem = instance.F.problem in
      let t = An.Presolve.analyze problem in
      let pruned, fixed, dropped, rejected =
        match t.An.Presolve.verdict with
        | An.Presolve.Feasible red ->
          (0, List.length red.An.Presolve.fixed, List.length red.An.Presolve.dropped, [])
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
          (1, 0, 0, rejected)
      in
      (* Solve the original problem and validate the verdict exactly as
         the sweep's Check mode does. *)
      let contradicted =
        if not check then []
        else
          let sol = Gp.Solver.solve problem in
          if O.usable_solution instance sol then O.presolve_disagreements instance t sol
          else []
      in
      (pruned, fixed, dropped, rejected @ contradicted)
    in
    match
      let* arch = arch in
      audit ~layer ~max_choices ~node ~jobs arch verdict
    with
    | Error msg -> fail msg
    | Ok results ->
      let sum f vs = List.fold_left (fun acc v -> acc + f v) 0 vs in
      let pruned (p, _, _, _) = p and fixed (_, f, _, _) = f and dropped (_, _, d, _) = d in
      Printf.printf "%-10s %14s %8s %6s %8s\n" "layer" "formulations" "pruned" "fixed"
        "dropped";
      List.iter
        (fun (nest, vs) ->
          Printf.printf "%-10s %14d %8d %6d %8d\n" (Nest.name nest) (List.length vs)
            (sum pruned vs) (sum fixed vs) (sum dropped vs))
        results;
      let all = List.concat_map snd results in
      Printf.printf "total: %d formulations, %d pruned, %d fixed, %d dropped\n"
        (List.length all) (sum pruned all) (sum fixed all) (sum dropped all);
      let disagreements = List.concat_map (fun (_, _, _, ds) -> ds) all in
      if disagreements <> [] then begin
        Printf.printf "%d disagreement(s):\n" (List.length disagreements);
        List.iter (fun d -> Printf.printf "  %s\n" d) disagreements;
        1
      end
      else 0
  in
  Cmd.v
    (Cmd.info "presolve"
       ~doc:
         "Audit the presolve layer: run interval bound propagation over every \
          program the optimizer would formulate (all modes, objectives, delay \
          models, permutation choices and placements, per layer), re-check every \
          infeasibility proof, and report prune/fix/drop counts.  With \
          $(b,--check), also solve everything and fail on any verdict the \
          solver contradicts.")
    Term.(
      const run $ setup_logs $ audit_layer_arg $ audit_max_choices_arg $ check_arg
      $ arch_args $ node_arg $ jobs_arg)

let journal_cmd =
  let compact_cmd =
    let files_arg =
      Arg.(
        non_empty & pos_all string []
        & info [] ~docv:"JOURNAL"
            ~doc:"Completion journals (JSONL) to compact in place.")
    in
    let run () files =
      List.fold_left
        (fun rc path ->
          match Sweep.Journal.load path with
          | Error msg ->
            Printf.eprintf "%s: %s\n" path msg;
            1
          | Ok entries ->
            let compacted = Sweep.Journal.compact entries in
            Sweep.Journal.write_file path compacted;
            Printf.printf "%s: %d entries -> %d\n" path (List.length entries)
              (List.length compacted);
            rc)
        0 files
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Rewrite completion journals in place to one line per pair — the last \
            entry wins, exactly as $(b,--resume) replays them — dropping \
            superseded and torn lines.  Resuming from a compacted journal is \
            byte-identical to resuming from the original.")
      Term.(const run $ setup_logs $ files_arg)
  in
  Cmd.group
    (Cmd.info "journal" ~doc:"Completion-journal maintenance utilities.")
    [ compact_cmd ]

let pipeline_cmd =
  let run () request = run_traced request in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:
         "Layer-wise co-design of a whole DNN pipeline, then re-optimization for the \
          dominant layer's shared architecture (Fig. 6 / Fig. 8 flow).")
    Term.(
      const run $ setup_logs
      $ pipeline_request (pipeline_opts (const P.default_opts.P.node_nm))
      $ config_with [ comm_opts ]
      $ trace_arg $ metrics_out_arg)

let merge_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"JOURNAL"
          ~doc:"Per-shard completion journals (JSONL) to combine.")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "journal"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the combined journal to $(docv) (sorted by pair index, duplicates \
             collapsed), then resume the sweep from it.")
  in
  let request =
    let codesign_arg =
      Arg.(
        value & flag
        & info [ "codesign" ]
            ~doc:
              "The shards ran $(b,thistle codesign) (with $(b,--area)); reproduce \
               that command's report (the default reproduces $(b,thistle optimize) \
               on the $(b,--pes/--regs/--sram) architecture).")
    in
    let pick codesign codesign_request optimize_request =
      if codesign then codesign_request else optimize_request
    in
    Term.(const pick $ codesign_arg $ codesign_request area_arg $ optimize_request)
  in
  let run () request base out files =
    (* The merged run replays every journaled pair and re-runs ranking +
       integerization over the full work-list: its report is
       byte-identical to the corresponding unsharded command.  Pairs the
       shards never completed (or whose fingerprints went stale) are
       re-solved here and appended to the merged journal. *)
    match resolve { base with O.journal = Some out; resume = true } request with
    | Error msg -> fail msg
    | Ok r -> (
      match Sweep.Merge.load_files files with
      | Error msg -> fail msg
      | Ok entries ->
        Sweep.Journal.write_file out entries;
        reply r)
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Combine per-shard sweep journals and replay them into the exact report an \
          unsharded run would print.  Pass the same layer, objective, architecture, \
          communication-model and solver flags the shards ran with; pairs missing \
          from the journals are re-solved.")
    Term.(
      const run $ setup_logs $ request $ config_with [ comm_opts ] $ out_arg $ files_arg)

let metrics_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the dump as one JSON object instead of a text table.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the dump to $(docv) instead of stdout.")
  in
  let run () request base json out =
    match resolve base request with
    | Error msg -> fail msg
    | Ok r ->
      Obs.Metrics.reset ();
      Obs.Metrics.enable ();
      let result = P.solve r in
      Obs.Metrics.disable ();
      let dump = Obs.Metrics.snapshot () in
      let payload =
        if json then Obs.Metrics.to_json dump ^ "\n"
        else begin
          let b = Buffer.create 1024 in
          let ppf = Format.formatter_of_buffer b in
          (match result with
          | Ok report ->
            Format.fprintf ppf "solver: %a@." Gp.Solver.pp_totals report.O.solve_totals
          | Error msg -> Format.fprintf ppf "optimization failed: %s@." msg);
          Obs.Metrics.pp_text ppf dump;
          Format.pp_print_flush ppf ();
          Buffer.contents b
        end
      in
      (match out with
      | None -> print_string payload
      | Some file ->
        let oc = open_out file in
        output_string oc payload;
        close_out oc);
      (match result with Ok _ -> 0 | Error _ -> 1)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Co-design one layer with metric recording on and dump every counter, gauge \
          and histogram (solver iterations, duality gap, integerization candidates, \
          pool queue waits) as text or JSON.")
    Term.(
      const run $ setup_logs $ codesign_request (const None) $ base_config $ json_arg
      $ out_arg)

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
        (pipeline_request (pipeline_opts node_arg));
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
      lint_cmd;
      presolve_cmd;
      journal_cmd;
      merge_cmd;
      metrics_cmd;
      serve_cmd;
      client_cmd;
    ]

let () = exit (Cmd.eval' main)
