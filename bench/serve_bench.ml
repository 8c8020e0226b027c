(* Serve-daemon benchmark: request latency and throughput against an
   in-process daemon (Tcp on loopback) with a fresh result store — the
   cold solve, the warm-hit replay path, and saturation throughput with
   concurrent clients hammering stored answers.

   Emits BENCH_serve.json (flat one-level object; format documented in
   README.md) so the perf trajectory has a recorded baseline —
   tools/perfdiff.sh knows *_ms is lower-is-better and
   *hit_rate/*req_per_s are higher-is-better.

   Usage:
     dune exec bench/serve_bench.exe                      # defaults
     dune exec bench/serve_bench.exe -- --requests 200 --clients 8
     dune exec bench/serve_bench.exe -- --smoke           # tiny CI run *)

module F = Thistle.Formulate
module Arch = Archspec.Arch
module Json = Obs.Json
module Protocol = Serve.Protocol
module Server = Serve.Server
module Client = Serve.Client

type options = {
  layer : string;
  max_choices : int;
  requests : int;  (** warm requests measured sequentially *)
  clients : int;  (** concurrent clients for the saturation phase *)
  per_client : int;  (** requests each saturation client issues *)
  out : string;
}

let parse_args () =
  let layer = ref "resnet-2" in
  let max_choices = ref 8 in
  let requests = ref 100 in
  let clients = ref 8 in
  let per_client = ref 50 in
  let out = ref "BENCH_serve.json" in
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
    | "--max-choices" :: n :: rest ->
      max_choices := int_arg "--max-choices" n;
      go rest
    | "--requests" :: n :: rest ->
      requests := int_arg "--requests" n;
      go rest
    | "--clients" :: n :: rest ->
      clients := int_arg "--clients" n;
      go rest
    | "--per-client" :: n :: rest ->
      per_client := int_arg "--per-client" n;
      go rest
    | "--out" :: file :: rest ->
      out := file;
      go rest
    | "--smoke" :: rest ->
      (* Seconds-scale sanity run for the @bench alias. *)
      max_choices := 4;
      requests := 20;
      clients := 2;
      per_client := 10;
      go rest
    | arg :: _ ->
      Printf.eprintf
        "unknown argument %s (expected --layer NAME, --max-choices N, --requests N, \
         --clients N, --per-client N, --out FILE, --smoke)\n"
        arg;
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  {
    layer = !layer;
    max_choices = !max_choices;
    requests = !requests;
    clients = !clients;
    per_client = !per_client;
    out = !out;
  }

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1 |> max 0))

let counter name =
  match List.assoc_opt name (Obs.Metrics.counters (Obs.Metrics.snapshot ())) with
  | Some v -> v
  | None -> 0

let () =
  let options = parse_args () in
  let store_dir = temp_dir "thistle-bench-serve" in
  let cfg =
    {
      (Server.default (Server.Tcp 0)) with
      Server.store_dir = Some store_dir;
      max_inflight = options.clients + 2;
    }
  in
  let server =
    match Server.start cfg with
    | Ok t -> t
    | Error m ->
      Printf.eprintf "serve bench: %s\n" m;
      exit 1
  in
  let port =
    match Server.address server with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> assert false
  in
  let req =
    Protocol.Optimize
      {
        layer = options.layer;
        objective = F.Energy;
        arch = Arch.eyeriss;
        opts =
          {
            Protocol.top_choices = 1;
            max_choices = options.max_choices;
            node_nm = Archspec.Technology.reference_node_nm;
          };
      }
  in
  Obs.Metrics.reset ();
  let ask client =
    match Client.request client req with
    | Ok (Protocol.Payload { body; _ }) -> body
    | Ok (Protocol.Refused { message; _ }) ->
      Printf.eprintf "serve bench: refused: %s\n" message;
      exit 1
    | Error m ->
      Printf.eprintf "serve bench: %s\n" m;
      exit 1
  in
  let with_client f =
    match Client.connect (Client.tcp_addr port) with
    | Error m ->
      Printf.eprintf "serve bench: %s\n" m;
      exit 1
    | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)
  in
  (* Cold solve: the one store miss of the whole run. *)
  let t0 = Unix.gettimeofday () in
  let cold_body = with_client ask in
  let cold_wall_s = Unix.gettimeofday () -. t0 in
  (* Warm hits, one connection, sequential: latency distribution. *)
  let latencies =
    with_client @@ fun c ->
    Array.init options.requests (fun _ ->
        let t0 = Unix.gettimeofday () in
        let body = ask c in
        let dt = Unix.gettimeofday () -. t0 in
        if not (String.equal body cold_body) then begin
          Printf.eprintf "serve bench: warm reply differs from cold bytes\n";
          exit 1
        end;
        dt)
  in
  let warm_wall_s = Array.fold_left ( +. ) 0.0 latencies in
  Array.sort compare latencies;
  let p50_ms = 1e3 *. percentile latencies 0.50 in
  let p99_ms = 1e3 *. percentile latencies 0.99 in
  let warm_req_per_s = float_of_int options.requests /. warm_wall_s in
  (* Saturation: concurrent clients replaying the stored answer. *)
  let total_sat = options.clients * options.per_client in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init options.clients (fun _ ->
        Thread.create
          (fun () ->
            with_client @@ fun c ->
            for _ = 1 to options.per_client do
              ignore (ask c)
            done)
          ())
  in
  List.iter Thread.join threads;
  let sat_wall_s = Unix.gettimeofday () -. t0 in
  let sat_req_per_s = float_of_int total_sat /. sat_wall_s in
  let hits = counter "serve.cache_hits" in
  let misses = counter "serve.cache_misses" in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  Server.stop server;
  (try rm_rf store_dir with Sys_error _ | Unix.Unix_error _ -> ());
  let buf = Buffer.create 512 in
  let f name v = Json.field name (Json.float v) in
  let i name v = Json.field name (Json.int v) in
  let s name v = Json.field name (Json.str v) in
  Json.obj
    [
      s "bench" "serve";
      s "layer" options.layer;
      i "max_choices" options.max_choices;
      i "warm_requests" options.requests;
      i "sat_clients" options.clients;
      i "sat_requests" total_sat;
      f "serve_cold_wall_s" cold_wall_s;
      f "serve_warm_p50_ms" p50_ms;
      f "serve_warm_p99_ms" p99_ms;
      f "serve_warm_req_per_s" warm_req_per_s;
      f "serve_sat_req_per_s" sat_req_per_s;
      f "serve_cache_hit_rate" hit_rate;
      i "serve_cache_hits" hits;
      i "serve_cache_misses" misses;
    ]
    buf;
  Buffer.add_char buf '\n';
  let oc = open_out options.out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf
    "serve bench: cold %.2fs; warm p50 %.3fms p99 %.3fms (%.0f req/s); saturation \
     %.0f req/s over %d clients; hit rate %.3f\n"
    cold_wall_s p50_ms p99_ms warm_req_per_s sat_req_per_s options.clients hit_rate;
  Printf.printf "wrote %s\n" options.out
