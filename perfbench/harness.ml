(* The repository benchmark: runs one seeded workload against the
   library or the [thistle serve] daemon, checks every answer, and prints
   its metrics — a table, then one JSON line.  README.md documents the
   workloads, metrics and checks.

     harness.exe --workload NAME --seed N --seconds S --trace 0|1

   Run it through run.sh, which builds it and the CLI first. *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module E = Accmodel.Evaluate
module Arch = Archspec.Arch
module Tech = Archspec.Technology
module Protocol = Serve.Protocol
module Store = Serve.Store
module Render = Serve.Render
module Client = Serve.Client
module Replay = Perfbench.Replay
module Gen = Perfbench.Gen
module Stats = Perfbench.Stats

(* Seconds on the monotonic clock, to the nanosecond: a hit takes tens
   of microseconds, too few for gettimeofday's microsecond steps. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* On a shared VM the same work can take up to twice as long from one
   minute to the next, in CPU time as in wall time, which no run length
   averages away.  So each run also times a fixed floating-point loop
   owned by the harness, at points spread over the run, and scales every
   host-time figure by how slow that loop ran: the figures read as
   seconds on a host that runs the loop in [reference_nominal_s].  The
   table under each run also prints the unscaled figures and the factor.
   The loop never calls the library, so a change to the program moves
   the scaled figures exactly as it moves the raw ones. *)
let reference_nominal_s = 0.020
let reference_input = Array.init 4096 (fun i -> 1.0 +. (float_of_int i /. 4096.0))
let reference_times = ref []

let reference_sample () =
  let t0 = now () in
  let acc = ref 0.0 in
  for _ = 1 to 300 do
    Array.iter (fun x -> acc := !acc +. (Float.log x *. Float.exp (-.x))) reference_input
  done;
  ignore (Sys.opaque_identity !acc);
  reference_times := (now () -. t0) :: !reference_times

(* 1.0 at the nominal host speed, 1.3 when the loop ran 30% slower. *)
let slowness () = Stats.median !reference_times /. reference_nominal_s

(* ------------------------------------------------------------------ *)
(* Checks, timing and output                                          *)
(* ------------------------------------------------------------------ *)

let problems = ref []

let check ok msg = if not ok then problems := msg :: !problems

type stage = { mutable busy : float; mutable calls : int; mutable samples : float list }

let stages : (string, stage) Hashtbl.t = Hashtbl.create 32

let stage name =
  match Hashtbl.find_opt stages name with
  | Some s -> s
  | None ->
    let s = { busy = 0.0; calls = 0; samples = [] } in
    Hashtbl.add stages name s;
    s

let record name dt =
  let s = stage name in
  s.busy <- s.busy +. dt;
  s.calls <- s.calls + 1;
  s.samples <- dt :: s.samples

let timed name f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> record name (now () -. t0)) f

let tracing = { Replay.time = timed }
let untimed = { Replay.time = (fun _ f -> f ()) }
let busy name = (stage name).busy
let p50 name = match (stage name).samples with [] -> 0.0 | xs -> Stats.median xs

(* Stages of one solver request, in the order the library runs them. *)
let solver_stages =
  [ "permutations.enumerate"; "formulate.build"; "formulate.lint"; "optimize.key";
    "analysis.presolve"; "analysis.certify"; "gp.solve"; "optimize.rank";
    "integerize.run"; "optimize.select" ]

type metric = { name : string; value : float; unit_ : string; raw : float option }

let m name unit_ value = { name; value; unit_; raw = None }

(* Host-time figures, scaled to the nominal host speed. *)
let host_time name unit_ v = { name; value = v /. slowness (); unit_; raw = Some v }
let host_rate name unit_ v = { name; value = v *. slowness (); unit_; raw = Some v }

let print_stages () =
  Printf.printf "%-24s %12s %8s %14s\n" "stage" "busy_s" "calls" "p50_per_call_s";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) stages []
  |> List.sort compare
  |> List.iter (fun (k, s) ->
         Printf.printf "%-24s %12.6f %8d %14.9f\n" k s.busy s.calls (Stats.median s.samples))

let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> int_of_string_opt steal
    | _ -> None)
  | None | (exception Sys_error _) -> None

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let lines = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n' in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith ("no VmHWM in " ^ path)

let emit ~attempted ~failed ~steal0 metrics =
  let steal1 = steal_ticks () in
  Printf.printf "host_cpus %d, cpu steal ticks during run %s\n"
    (Domain.recommended_domain_count ())
    (match (steal0, steal1) with
    | Some a, Some b -> string_of_int (b - a)
    | _ -> "unavailable");
  Printf.printf "host slowness %.4f (reference loop: median %.6f s over %d samples)\n"
    (slowness ()) (Stats.median !reference_times) (List.length !reference_times);
  List.iter
    (fun x ->
      Printf.printf "%-34s %18.9g %-10s%s\n" x.name x.value x.unit_
        (match x.raw with Some r -> Printf.sprintf " (unscaled %.9g)" r | None -> ""))
    metrics;
  List.iter
    (fun x -> check (Float.is_finite x.value) (Printf.sprintf "metric %s is not finite" x.name))
    metrics;
  let correct = !problems = [] in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev !problems);
  let field x =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name
      (if Float.is_finite x.value then x.value else 0.0)
      x.unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map field metrics));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Requests and the serve-side request resolution                     *)
(* ------------------------------------------------------------------ *)

let base_config = { O.default_config with O.jobs = 1 }

type resolved = {
  config : O.config;
  tech : Tech.t;
  mode : F.arch_mode;
  objective : F.objective;
  nest : Workload.Nest.t;
  fingerprint : string;
  key : string;
  header : string;  (** rendered before the report, as the daemon does *)
}

(* What the daemon derives from a decoded solve request before it reads
   its store (lib/serve/server.ml's [resolve]), for the in-process hit
   path and the traced run's re-solves. *)
let resolve (req : Protocol.request) =
  let make ~layer ~objective ~(opts : Protocol.opts) mode header =
    let config =
      { base_config with O.top_choices = opts.Protocol.top_choices; max_choices = opts.Protocol.max_choices }
    in
    let tech = Tech.scale_to_node Tech.table3 ~node_nm:opts.Protocol.node_nm in
    let nest = Workload.Conv.to_nest (Workload.Zoo.find layer) in
    let mode, header = (mode tech, header tech) in
    let key = O.request_key ~config tech mode objective nest in
    { config; tech; mode; objective; nest; fingerprint = O.config_fingerprint config; key; header }
  in
  match req with
  | Protocol.Optimize { layer; objective; arch; opts } ->
    make ~layer ~objective ~opts (fun _ -> F.Fixed arch) (fun _ -> "")
  | Protocol.Codesign { layer; objective; area = None; opts } ->
    make ~layer ~objective ~opts
      (fun tech -> F.Codesign { area_budget = Arch.eyeriss_area tech })
      (fun tech -> Render.area_header (Arch.eyeriss_area tech))
  | _ -> invalid_arg "resolve: not a benchmark request"

let body (r : resolved) report = r.header ^ Render.outcome ~tech:r.tech report

let same_report (a : O.report) (b : O.report) =
  a.O.outcome = b.O.outcome
  && a.O.choices_enumerated = b.O.choices_enumerated
  && a.O.choices_solved = b.O.choices_solved
  && Int64.equal (Int64.bits_of_float a.O.best_continuous) (Int64.bits_of_float b.O.best_continuous)
  && a.O.solve_totals = b.O.solve_totals
  && a.O.pruned = b.O.pruned
  && List.length a.O.failures = List.length b.O.failures

(* Counts behind the per-layer metrics: the library's answers (which
   repeat exactly from run to run) and the replay's solver calls. *)
type counts = {
  mutable choices : int;
  mutable raw : int;
  mutable programs : int;
  mutable pruned : int;
  mutable totals : Gp.Solver.totals;
  mutable solver_calls : int;
  mutable optimal : int;
  mutable tried : int;
  mutable valid : int;
}

let counts =
  { choices = 0; raw = 0; programs = 0; pruned = 0; totals = Gp.Solver.zero_totals;
    solver_calls = 0; optimal = 0; tried = 0; valid = 0 }

(* The traced replay of one request, stage by stage. *)
let replay (r : resolved) ~name =
  let rr = Replay.run ~timer:tracing ~config:r.config r.tech r.mode r.objective r.nest in
  counts.raw <- counts.raw + rr.Replay.raw_choices;
  counts.programs <- counts.programs + rr.Replay.programs;
  counts.solver_calls <- counts.solver_calls + List.length rr.Replay.statuses;
  counts.optimal <-
    counts.optimal + List.length (List.filter (( = ) Gp.Solver.Optimal) rr.Replay.statuses);
  (match rr.Replay.report with Error e -> check false (name ^ ": replay failed: " ^ e) | Ok _ -> ());
  rr.Replay.report

(* Re-evaluate a returned design with the model: it must reproduce the
   reported metrics exactly. *)
let reevaluate ~timer (r : resolved) (o : I.outcome) =
  match
    timer.Replay.time "accmodel.evaluate" (fun () ->
        E.evaluate ~comm:r.config.O.comm ~contention:r.config.O.contention r.tech o.I.arch r.nest
          o.I.mapping)
  with
  | Ok metrics -> metrics = o.I.metrics
  | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced run                                   *)
(* ------------------------------------------------------------------ *)

let add_counts (rep : O.report) =
  let t = rep.O.solve_totals and s = counts.totals in
  counts.choices <- counts.choices + rep.O.choices_enumerated;
  counts.pruned <- counts.pruned + List.length rep.O.pruned;
  counts.tried <- counts.tried + rep.O.outcome.I.candidates_tried;
  counts.valid <- counts.valid + rep.O.outcome.I.candidates_valid;
  counts.totals <-
    {
      Gp.Solver.solves = s.Gp.Solver.solves + t.Gp.Solver.solves;
      t_phase1_outer = s.t_phase1_outer + t.t_phase1_outer;
      t_phase2_outer = s.t_phase2_outer + t.t_phase2_outer;
      t_newton_iters = s.t_newton_iters + t.t_newton_iters;
      t_backtracks = s.t_backtracks + t.t_backtracks;
      t_kkt_regularizations = s.t_kkt_regularizations + t.t_kkt_regularizations;
      t_cholesky_fallbacks = s.t_cholesky_fallbacks + t.t_cholesky_fallbacks;
      t_deadline_hits = s.t_deadline_hits + t.t_deadline_hits;
      max_duality_gap = Float.max s.max_duality_gap t.max_duality_gap;
    }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let serve_stages =
  [ "serve.decode"; "serve.key"; "serve.store_get"; "serve.store_put"; "serve.render"; "serve.encode" ]

(* [coverage] is the busy time of the timed stages over the end-to-end
   wall time they fall in. *)
let layer_metrics ~hit_s ~misses ~transport_us ~miss_solve_s ~coverage =
  let hits = List.length hit_s in
  let t = counts.totals in
  let us name = 1e6 *. p50 name in
  let n = float_of_int in
  let hs = host_time in
  [
    hs "permutations.enumerate_s" "s" (busy "permutations.enumerate");
    m "permutations.choices" "count" (n counts.choices);
    m "permutations.kept_ratio" "ratio" (ratio counts.choices counts.raw);
    hs "formulate.build_s" "s" (busy "formulate.build");
    hs "formulate.lint_s" "s" (busy "formulate.lint");
    m "formulate.programs" "count" (n counts.programs);
    hs "analysis.presolve_s" "s" (busy "analysis.presolve");
    m "analysis.pruned" "count" (n counts.pruned);
    m "analysis.pruned_ratio" "ratio" (ratio counts.pruned counts.programs);
    hs "analysis.certify_s" "s" (busy "analysis.certify");
    hs "gp.solve_s" "s" (busy "gp.solve");
    m "gp.solves" "count" (n t.Gp.Solver.solves);
    hs "gp.solve_ms_p50" "ms" (1e3 *. p50 "gp.solve");
    m "gp.newton_steps" "count" (n t.t_newton_iters);
    m "gp.newton_per_solve" "count" (ratio t.t_newton_iters counts.solver_calls);
    m "gp.phase1_outer" "count" (n t.t_phase1_outer);
    m "gp.phase2_outer" "count" (n t.t_phase2_outer);
    m "gp.backtracks" "count" (n t.t_backtracks);
    m "gp.kkt_regularizations" "count" (n t.t_kkt_regularizations);
    m "gp.optimal_ratio" "ratio" (ratio counts.optimal counts.solver_calls);
    m "gp.nonoptimal" "count" (n (counts.solver_calls - counts.optimal));
    hs "integerize.run_s" "s" (busy "integerize.run");
    m "integerize.candidates_tried" "count" (n counts.tried);
    m "integerize.valid_ratio" "ratio" (ratio counts.valid counts.tried);
    hs "accmodel.evaluate_us_p50" "us" (us "accmodel.evaluate");
    m "serve.hits" "count" (n hits);
    m "serve.misses" "count" (n misses);
    m "serve.hit_ratio" "ratio" (ratio hits (hits + misses));
    hs "serve.decode_us_p50" "us" (us "serve.decode");
    hs "serve.key_us_p50" "us" (us "serve.key");
    hs "serve.store_get_us_p50" "us" (us "serve.store_get");
    hs "serve.store_put_us_p50" "us" (us "serve.store_put");
    hs "serve.render_us_p50" "us" (us "serve.render");
    hs "serve.encode_us_p50" "us" (us "serve.encode");
    hs "serve.transport_us_p50" "us" (1e6 *. Stats.median transport_us);
    hs "serve.hit_p99_ms" "ms" (1e3 *. Stats.percentile 0.99 hit_s);
    hs "serve.miss_solve_s_p50" "s" (Stats.median miss_solve_s);
    m "trace.coverage" "ratio" coverage;
  ]

(* ------------------------------------------------------------------ *)
(* The hit path                                                        *)
(* ------------------------------------------------------------------ *)

(* Answer an already-answered request from the store the way the daemon
   does for a hit — decode, key, store read, encode — and return the
   encoded response.  In a traced run each step is timed. *)
let serve_hit ~timer store payload =
  let t = timer.Replay.time in
  match t "serve.decode" (fun () -> Protocol.decode_request payload) with
  | Error e -> Error e
  | Ok req -> (
    let r =
      t "serve.key" (fun () ->
          let r = resolve req in
          (* The daemon single-flights requests on this digest. *)
          ignore (Sys.opaque_identity (Store.digest ~config:r.fingerprint ~request_key:r.key));
          r)
    in
    match t "serve.store_get" (fun () -> Store.get store ~config:r.fingerprint ~request_key:r.key) with
    | None -> Error "store miss on a repeated request"
    | Some body ->
      Ok (t "serve.encode" (fun () -> Protocol.encode_response (Protocol.Payload { body; cached = true }))))

let put ~timer store (r : resolved) body =
  timer.Replay.time "serve.store_put" (fun () ->
      Store.put store ~config:r.fingerprint ~request_key:r.key body)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type args = { workload : string; seed : int; seconds : int; trace : bool; probe : bool }

let run_dir = Printf.sprintf ".perfbench-run/%d" (Unix.getpid ())

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let open_store dir =
  match Store.open_ dir with Ok s -> s | Error e -> failwith ("cannot open store: " ^ e)

(* The text after the first occurrence of [marker] in [s]. *)
let after s marker =
  let n = String.length s and k = String.length marker in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = marker then Some (String.sub s (i + k) (n - i - k))
    else go (i + 1)
  in
  go 0

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let waitpid pid = ignore (Unix.waitpid [] pid)

(* The codesign-energy workload: Optimize.codesign in process on
   Technology.table3 at the Eyeriss area, Energy objective, default
   config but one domain; one request per drawn zoo layer shape. *)
module Codesign_energy = struct
  (* Layer requests per second of --seconds, as a 2-vCPU Xeon VM
     usually runs them; the request count is fixed from --seconds, so
     the requests (and the exact metrics) depend on the seed and
     --seconds alone. *)
  let requests_per_s = 0.62
  let hits_per_run = 20000

  let protocol_request (c : Workload.Conv.t) =
    Protocol.Codesign
      { layer = c.Workload.Conv.layer_name; objective = F.Energy; area = None; opts = Protocol.default_opts }

  let prepare a =
    let pool = Gen.zoo_shapes () in
    let n =
      Int.min (List.length pool) (Int.max 4 (Float.to_int (Float.round (float_of_int a.seconds *. requests_per_s))))
    in
    let rng = Gen.rng a.seed in
    let layers =
      Gen.stratified rng ~n
        ~key:(fun (c : Workload.Conv.t) -> c.Workload.Conv.out_channels * c.Workload.Conv.in_channels)
        (Gen.window_strata pool)
    in
    (Array.of_list layers, Gen.stream rng ~distinct:n ~repeats:(hits_per_run / n))

  let run a self_argv =
    let steal0 = steal_ticks () in
    let layers, stream = prepare a in
    let n = Array.length layers in
    let requests = Array.map (fun c -> resolve (protocol_request c)) layers in
    let payloads = Array.map (fun c -> Protocol.encode_request (protocol_request c)) layers in
    let area = Arch.eyeriss_area Tech.table3 in
    let store = open_store (Filename.concat run_dir "store") in
    let timer = if a.trace then tracing else untimed in
    let asked = Array.make n false and bodies = Array.make n None in
    let answers = ref [] and hit_latency = ref [] and setup = ref [] and failed = ref 0 in
    (* A set-up sample: the harness itself, spawned and stopped where its
       timed region would start.  Taken twice before every layer
       request, so the samples span the run. *)
    let setup_sample () =
      let dn = Lazy.force devnull in
      let t0 = now () in
      waitpid (Unix.create_process Sys.executable_name self_argv dn dn Unix.stderr);
      setup := (now () -. t0) :: !setup
    in
    (* The stream: each layer request is solved (timed), rendered and
       stored; the repeat asks after it are answered from the store the
       way the daemon answers a hit. *)
    List.iter
      (fun j ->
        if not asked.(j) then begin
          asked.(j) <- true;
          setup_sample ();
          setup_sample ();
          reference_sample ();
          let r = requests.(j) in
          let t0 = now () in
          let rep = O.codesign ~config:base_config Tech.table3 ~area_budget:area F.Energy r.nest in
          let dt = now () -. t0 in
          answers := (r, rep, dt) :: !answers;
          match rep with
          | Ok d ->
            let b = timer.Replay.time "serve.render" (fun () -> body r d) in
            put ~timer store r b;
            bodies.(j) <- Some b
          | Error e ->
            incr failed;
            check false (Workload.Nest.name r.nest ^ ": " ^ e)
        end
        else
          match bodies.(j) with
          | None -> ()
          | Some expected -> (
            let t0 = now () in
            let resp = serve_hit ~timer store payloads.(j) in
            hit_latency := (now () -. t0) :: !hit_latency;
            match resp with
            | Ok bytes ->
              check
                (Protocol.decode_response bytes = Ok (Protocol.Payload { body = expected; cached = true }))
                "in-process hit body differs from the stored answer"
            | Error e ->
              incr failed;
              check false e))
      stream;
    let answers = List.rev !answers and hit_latency = List.rev !hit_latency in
    let designs = List.filter_map (fun (r, rep, _) -> Result.to_option rep |> Option.map (fun d -> (r, d))) answers in
    List.iter
      (fun ((r : resolved), (d : O.report)) ->
        let name = Workload.Nest.name r.nest in
        check (reevaluate ~timer r d.O.outcome) (name ^ ": re-evaluated design differs from the report");
        check (Arch.area r.tech d.O.outcome.I.arch <= area) (name ^ ": design exceeds the area budget"))
      designs;
    let request_s = List.map (fun (_, _, dt) -> dt) answers in
    let geo f = Stats.geomean (List.map (fun (_, (d : O.report)) -> f d.O.outcome.I.metrics) designs) in
    let attempted = List.length stream in
    if not a.trace then begin
      Printf.printf
        "codesign-energy: %d layer requests, %d repeat asks (p99 %.6f ms unscaled, %d beyond it), %d \
         set-up samples\n"
        n (List.length hit_latency)
        (1e3 *. Stats.percentile 0.99 hit_latency)
        (Stats.beyond 0.99 hit_latency) (List.length !setup);
      emit ~attempted ~failed:!failed ~steal0
        [
          host_time "setup_s" "s" (Stats.median !setup);
          host_rate "designs_per_s" "1/s" (float_of_int n /. Stats.sum request_s);
          host_time "design_p50_s" "s" (Stats.median request_s);
          m "energy_pj_per_mac_geomean" "pJ/MAC" (geo (fun e -> e.E.energy_per_mac));
          m "ipc_geomean" "MAC/cycle" (geo (fun e -> e.E.ipc));
          host_time "hit_p50_ms" "ms" (1e3 *. Stats.median hit_latency);
          m "peak_rss_mb" "MB" (peak_rss_mb "self");
        ]
    end
    else begin
      (* Replay each request stage by stage and hold it to the answer. *)
      List.iter
        (fun ((r : resolved), (d : O.report)) ->
          let name = Workload.Nest.name r.nest in
          add_counts d;
          match replay r ~name with
          | Ok rep -> check (same_report rep d) (name ^ ": replay differs from the library's report")
          | Error _ -> ())
        designs;
      (* In process a hit has no transport: the residual is the
         harness's own overhead around the four steps. *)
      let cols =
        List.map
          (fun name -> Array.of_list (List.rev (stage name).samples))
          [ "serve.decode"; "serve.key"; "serve.store_get"; "serve.encode" ]
      in
      let transport =
        List.mapi (fun i dt -> List.fold_left (fun acc c -> acc -. c.(i)) dt cols) hit_latency
      in
      print_stages ();
      emit ~attempted ~failed:!failed ~steal0
        (layer_metrics ~hit_s:hit_latency ~misses:(List.length designs) ~transport_us:transport
           ~miss_solve_s:request_s
           ~coverage:(Stats.sum (List.map busy solver_stages) /. Stats.sum request_s))
    end
end

(* The serve-mix workload: the daemon as a child process on one domain
   and an empty store, driven over one connection in a closed loop by a
   seeded stream of optimize and codesign requests. *)
module Serve_mix = struct
  let max_choices = 2
  let repeats = 19  (* asks of already-answered requests per new request *)
  let misses_per_s = 1.8  (* distinct requests per second of --seconds, sized likewise *)
  let nodes = [ 45.0; 28.0; 16.0 ]
  let objectives = [ F.Energy; F.Delay; F.Edp ]

  let request (c : Workload.Conv.t) objective node codesign =
    let opts = { Protocol.default_opts with Protocol.max_choices; node_nm = node } in
    let layer = c.Workload.Conv.layer_name in
    if codesign then Protocol.Codesign { layer; objective; area = None; opts }
    else Protocol.Optimize { layer; objective; arch = Arch.eyeriss; opts }

  let prepare a =
    let rng = Gen.rng a.seed in
    let distinct = Int.max 4 (Float.to_int (Float.round (float_of_int a.seconds *. misses_per_s))) in
    let items strata =
      List.concat_map
        (fun c ->
          List.concat_map
            (fun (oi, o) ->
              List.concat_map
                (fun (ni, node) -> List.map (fun cd -> ((oi, cd, c, ni), request c o node cd)) [ false; true ])
                (List.mapi (fun i n -> (i, n)) nodes))
            (List.mapi (fun i o -> (i, o)) objectives))
        strata
    in
    (* Ordered by objective, kind and node before layer size, so the
       group draw balances all three as well as windows: energy per MAC
       alone differs eightfold between 45 and 16 nm. *)
    let key ((oi, cd, (c : Workload.Conv.t), ni), _) =
      (oi, cd, ni, c.Workload.Conv.out_channels * c.Workload.Conv.in_channels)
    in
    let drawn =
      Gen.stratified rng ~n:distinct ~key (List.map items (Gen.window_strata (Gen.zoo_shapes ())))
    in
    let reqs = Array.of_list (List.map snd drawn) in
    (reqs, Gen.stream rng ~distinct ~repeats)

  let cli () =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "thistle_cli.exe")

  let daemon_dir i = Filename.concat run_dir (Printf.sprintf "daemon-%d" i)

  (* Spawn a daemon on an empty store and connect as soon as it
     accepts; give up after 20 s. *)
  let start_daemon i =
    let dir = daemon_dir i in
    Unix.mkdir dir 0o755;
    let cli = cli () and sock = Filename.concat dir "sock" in
    let pid =
      Unix.create_process cli
        [| cli; "serve"; "--jobs"; "1"; "--socket"; sock; "--store"; Filename.concat dir "store" |]
        (Lazy.force devnull) (Lazy.force devnull) Unix.stderr
    in
    let deadline = now () +. 20.0 in
    let rec connect () =
      match Client.connect (Client.unix_addr sock) with
      | Ok c -> c
      | Error e ->
        let exited = match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> false | _ -> true in
        if exited || now () > deadline then begin
          if not exited then (Unix.kill pid Sys.sigkill; waitpid pid);
          failwith ("daemon did not start: " ^ e)
        end;
        Unix.sleepf 0.0002;
        connect ()
    in
    (pid, connect ())

  let stop_daemon (pid, c) =
    Client.close c;
    Unix.kill pid Sys.sigterm;
    waitpid pid

  let run a =
    let steal0 = steal_ticks () in
    let reqs, stream = prepare a in
    let setup = ref [] in
    (* A set-up sample: spawning a daemon on an empty store until it
       accepts a connection.  The first daemon serves the run; after
       every fourth miss another one is started and stopped, so the
       samples span the run. *)
    let daemon () =
      let t0 = now () in
      let d = start_daemon (List.length !setup) in
      setup := (now () -. t0) :: !setup;
      d
    in
    let ((pid, conn) as served) = daemon () in
    let alive = ref true in
    at_exit (fun () -> if !alive then stop_daemon served);
    let miss_body = Array.make (Array.length reqs) None in
    let misses_of = Array.make (Array.length reqs) 0 in
    let failed = ref 0 in
    let hits = ref [] and misses = ref [] in
    (* Each answer is classified (and a hit compared with its miss) as
       it arrives, outside its own timing, so the client keeps no
       response alive across requests. *)
    let classify j dt = function
      | Ok (Protocol.Payload { body; cached = false }) ->
        misses_of.(j) <- misses_of.(j) + 1;
        miss_body.(j) <- Some body;
        misses := (j, dt) :: !misses;
        reference_sample ();
        if List.length !misses mod 4 = 0 then stop_daemon (daemon ())
      | Ok (Protocol.Payload { body; cached = true }) ->
        check (miss_body.(j) = Some body) (Protocol.describe reqs.(j) ^ ": hit differs from its miss");
        hits := (j, dt) :: !hits
      | Ok (Protocol.Refused { message; _ }) ->
        incr failed;
        check false (Protocol.describe reqs.(j) ^ ": refused: " ^ message)
      | Error e ->
        incr failed;
        check false (Protocol.describe reqs.(j) ^ ": " ^ e)
    in
    (* Closed loop, one request in flight; the timed wall time is the
       sum of the requests' round trips. *)
    List.iter
      (fun j ->
        let t0 = now () in
        let resp = Client.request conn reqs.(j) in
        classify j (now () -. t0) resp)
      stream;
    let rss = peak_rss_mb (string_of_int pid) in
    alive := false;
    stop_daemon served;
    let hits = List.rev !hits and misses = List.rev !misses in
    let wall = Stats.sum (List.map snd hits @ List.map snd misses) in
    Array.iteri
      (fun j n -> check (n = 1) (Printf.sprintf "%s: %d misses" (Protocol.describe reqs.(j)) n))
      misses_of;
    (* Energy per MAC and IPC of each answered design, read from the
       report the daemon rendered. *)
    let scan fmt body marker =
      match after body marker with
      | Some rest -> (try Some (Scanf.sscanf rest fmt Fun.id) with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
      | None -> None
    in
    let design_metrics =
      List.filter_map
        (fun b ->
          match (scan "%f pJ/MAC" b "pJ (", scan "%f" b "IPC ") with
          | Some e, Some i -> Some (e, i)
          | _ ->
            check false "a miss body has no energy/IPC figures";
            None)
        (List.filter_map Fun.id (Array.to_list miss_body))
    in
    if not a.trace then begin
      Printf.printf "serve-mix: %d distinct requests, %d misses, %d hits (p99 %.6f ms unscaled, %d beyond it)\n"
        (Array.length reqs) (List.length misses) (List.length hits)
        (1e3 *. Stats.percentile 0.99 (List.map snd hits))
        (Stats.beyond 0.99 (List.map snd hits));
      emit ~attempted:(List.length stream) ~failed:!failed ~steal0
        [
          host_time "setup_s" "s" (Stats.median !setup);
          host_rate "designs_per_s" "1/s" (float_of_int (List.length hits + List.length misses) /. wall);
          host_time "design_p50_s" "s" (Stats.median (List.map snd misses));
          m "energy_pj_per_mac_geomean" "pJ/MAC" (Stats.geomean (List.map fst design_metrics));
          m "ipc_geomean" "MAC/cycle" (Stats.geomean (List.map snd design_metrics));
          host_time "hit_p50_ms" "ms" (1e3 *. Stats.median (List.map snd hits));
          m "peak_rss_mb" "MB" rss;
        ]
    end
    else begin
      (* Re-solve every miss in process, stage by stage: its rendered
         report must be byte-identical to the daemon's answer. *)
      let store = open_store (Filename.concat run_dir "trace-store") in
      let miss_solve =
        List.map
          (fun (j, _) ->
            let r = resolve reqs.(j) in
            let t0 = now () in
            let rep = replay r ~name:(Protocol.describe reqs.(j)) in
            let dt = now () -. t0 in
            (match rep with
            | Ok d ->
              add_counts d;
              check (reevaluate ~timer:tracing r d.O.outcome)
                (Protocol.describe reqs.(j) ^ ": re-evaluated design differs from the report");
              let b = timed "serve.render" (fun () -> body r d) in
              check (Some b = miss_body.(j))
                (Protocol.describe reqs.(j) ^ ": daemon answer differs from the in-process solve");
              put ~timer:tracing store r b
            | Error _ -> ());
            dt)
          misses
      in
      let transport =
        List.map
          (fun (j, dt) ->
            let parts = [ "serve.decode"; "serve.key"; "serve.store_get"; "serve.encode" ] in
            let before = List.map busy parts in
            (match serve_hit ~timer:tracing store (Protocol.encode_request reqs.(j)) with
            | Ok _ -> ()
            | Error e -> check false e);
            List.fold_left2 (fun acc b p -> acc -. (busy p -. b)) dt before parts)
          hits
      in
      print_stages ();
      emit ~attempted:(List.length stream) ~failed:!failed ~steal0
        (layer_metrics ~hit_s:(List.map snd hits) ~misses:(List.length misses) ~transport_us:transport
           ~miss_solve_s:miss_solve
           ~coverage:(Stats.sum (List.map busy (solver_stages @ serve_stages)) /. wall))
    end
end

let parse_args () =
  let usage () =
    prerr_endline
      "usage: harness.exe --workload codesign-energy|serve-mix --seed N --seconds S --trace 0|1";
    exit 2
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: s :: rest -> go { a with seed = int s } rest
    | "--seconds" :: s :: rest -> go { a with seconds = int s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--setup-probe" :: rest -> go { a with probe = true } rest
    | _ -> usage ()
  in
  let a =
    go { workload = ""; seed = 0; seconds = 0; trace = false; probe = false } (List.tl (Array.to_list Sys.argv))
  in
  if a.seconds < 1 then usage ();
  a

let () =
  let a = parse_args () in
  let start () =
    List.iter
      (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
      [ Filename.dirname run_dir; run_dir ];
    at_exit (fun () ->
        remove_tree run_dir;
        try Sys.rmdir (Filename.dirname run_dir) with Sys_error _ -> ())
  in
  match a.workload with
  | "codesign-energy" ->
    (* A set-up probe is the harness itself, stopped where the timed
       region would start. *)
    if a.probe then ignore (Codesign_energy.prepare a)
    else begin
      start ();
      Codesign_energy.run a (Array.append Sys.argv [| "--setup-probe" |])
    end
  | "serve-mix" ->
    start ();
    Serve_mix.run a
  | w ->
    Printf.eprintf "unknown workload %S\n" w;
    exit 2
