(* The serve daemon (DESIGN §14): wire framing, the request/response
   codec, the content-addressed result store, and the daemon end to end
   — byte-identity of warm and cold answers, fingerprint invalidation,
   corruption tolerance, admission control and injected faults, all
   without ever killing the server. *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module Arch = Archspec.Arch
module Wire = Serve.Wire
module Protocol = Serve.Protocol
module Store = Serve.Store
module Render = Serve.Render
module Server = Serve.Server
module Client = Serve.Client

let tech = Archspec.Technology.table3
let arch = Arch.make ~name:"t" ~pes:64 ~registers:64 ~sram_words:8192

let opts =
  {
    Protocol.top_choices = 1;
    max_choices = 4;
    node_nm = Archspec.Technology.reference_node_nm;
  }

let req = Protocol.Optimize { layer = "resnet-2"; objective = F.Energy; arch; opts }

let base = { O.default_config with O.jobs = 2 }

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let counter name =
  match List.assoc_opt name (Obs.Metrics.counters (Obs.Metrics.snapshot ())) with
  | Some v -> v
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Wire framing                                                       *)
(* ------------------------------------------------------------------ *)

let with_pipe f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_wire_roundtrip () =
  with_pipe @@ fun a b ->
  List.iter
    (fun payload ->
      Wire.write_frame a payload;
      match Wire.read_frame b with
      | Ok got -> Alcotest.(check string) "payload" payload got
      | Error e -> Alcotest.failf "read failed: %s" (Wire.describe e))
    [ "x"; ""; String.make 100_000 'q'; "{\"v\":1}" ]

let test_wire_closed () =
  with_pipe @@ fun a b ->
  Unix.close a;
  match Wire.read_frame b with
  | Error Wire.Closed -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Closed"

let test_wire_torn () =
  (* EOF mid-header. *)
  with_pipe (fun a b ->
      ignore (Unix.write_substring a "\x00\x00" 0 2);
      Unix.close a;
      match Wire.read_frame b with
      | Error (Wire.Torn 2) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Torn 2");
  (* EOF mid-payload: header announces 50 bytes, 10 arrive. *)
  with_pipe (fun a b ->
      ignore (Unix.write_substring a "\x00\x00\x00\x32" 0 4);
      ignore (Unix.write_substring a "0123456789" 0 10);
      Unix.close a;
      match Wire.read_frame b with
      | Error (Wire.Torn 14) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Torn 14")

let test_wire_oversized () =
  with_pipe @@ fun a b ->
  (* A garbage prefix decodes to an absurd length. *)
  ignore (Unix.write_substring a "\xde\xad\xbe\xef" 0 4);
  match Wire.read_frame ~max_frame:1024 b with
  | Error (Wire.Oversized n) -> Alcotest.(check int) "announced" 0xdeadbeef n
  | Ok _ | Error _ -> Alcotest.fail "expected Oversized"

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                     *)
(* ------------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let reqs =
    [
      req;
      Protocol.Codesign { layer = "yolo-7"; objective = F.Delay; area = None; opts };
      Protocol.Codesign
        { layer = "yolo-7"; objective = F.Edp; area = Some 1234.5; opts };
      Protocol.Pipeline { pipeline = "alexnet"; objective = F.Energy; opts };
      Protocol.Metrics;
    ]
  in
  List.iter
    (fun r ->
      let encoded = Protocol.encode_request r in
      match Protocol.decode_request encoded with
      | Error m -> Alcotest.failf "decode (%s): %s" (Protocol.describe r) m
      | Ok r' ->
        Alcotest.(check string)
          "re-encode is byte-identical" encoded
          (Protocol.encode_request r'))
    reqs;
  let resps =
    [
      Protocol.Payload { body = "hello\nworld"; cached = true };
      Protocol.Payload { body = ""; cached = false };
      Protocol.Refused { kind = Protocol.Rejected; message = "busy" };
      Protocol.Refused { kind = Protocol.Bad_request; message = "?" };
      Protocol.Refused { kind = Protocol.Failed; message = "solver said no" };
    ]
  in
  List.iter
    (fun r ->
      let encoded = Protocol.encode_response r in
      match Protocol.decode_response encoded with
      | Error m -> Alcotest.failf "response decode: %s" m
      | Ok r' ->
        Alcotest.(check string)
          "response re-encode" encoded
          (Protocol.encode_response r'))
    resps

let test_protocol_rejects_garbage () =
  List.iter
    (fun payload ->
      match Protocol.decode_request payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoded garbage %S" payload)
    [
      "";
      "not json";
      "{}";
      "{\"v\":1}";
      "{\"v\":99,\"req\":\"metrics\"}" (* version mismatch *);
      "{\"v\":1,\"req\":\"optimize\"}" (* missing fields *);
      "{\"v\":1,\"req\":\"launch-missiles\"}";
      Protocol.encode_request req ^ "trailing";
    ]

(* ------------------------------------------------------------------ *)
(* Store                                                              *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  let dir = temp_dir "thistle-store" in
  match Store.open_ dir with
  | Error m -> Alcotest.failf "open: %s" m
  | Ok store ->
    let config = "cfg-v1" and request_key = "rk|a" in
    Alcotest.(check (option string))
      "empty store misses" None
      (Store.get store ~config ~request_key);
    Store.put store ~config ~request_key "payload-bytes\n";
    Alcotest.(check (option string))
      "hit after put" (Some "payload-bytes\n")
      (Store.get store ~config ~request_key);
    Store.put store ~config ~request_key "rewritten";
    Alcotest.(check (option string))
      "last put wins" (Some "rewritten")
      (Store.get store ~config ~request_key);
    Alcotest.(check (option string))
      "other config misses" None
      (Store.get store ~config:"cfg-v2" ~request_key);
    Alcotest.(check (option string))
      "other key misses" None
      (Store.get store ~config ~request_key:"rk|b")

let test_store_corruption_is_a_miss () =
  let dir = temp_dir "thistle-store" in
  let store = Result.get_ok (Store.open_ dir) in
  let config = "cfg" and request_key = "rk" in
  Store.put store ~config ~request_key "good";
  let path = Store.entry_path store ~config ~request_key in
  let clobber bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc
  in
  (* Truncated, garbage, and key-swapped entries must all read as
     misses, never raise. *)
  let entry = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun bytes ->
      clobber bytes;
      Alcotest.(check (option string))
        "corrupted entry is a miss" None
        (Store.get store ~config ~request_key))
    [
      String.sub entry 0 (String.length entry / 2);
      "}{ definitely not json";
      "";
      "{\"v\":1,\"config\":\"other\",\"request_key\":\"rk\",\"payload\":\"x\"}";
      "{\"v\":99,\"config\":\"cfg\",\"request_key\":\"rk\",\"payload\":\"x\"}";
    ];
  (* A fresh put repairs the entry. *)
  Store.put store ~config ~request_key "good again";
  Alcotest.(check (option string))
    "repaired" (Some "good again")
    (Store.get store ~config ~request_key)

let temp_files dir =
  List.filter
    (fun f -> String.starts_with ~prefix:".tmp-" f)
    (Array.to_list (Sys.readdir dir))

let test_store_failed_put_cleans_up () =
  let dir = temp_dir "thistle-store" in
  let store = Result.get_ok (Store.open_ dir) in
  let config = "cfg" and request_key = "rk" in
  (* A directory where the entry belongs: the final rename fails. *)
  let path = Store.entry_path store ~config ~request_key in
  Unix.mkdir (Filename.dirname path) 0o755;
  Unix.mkdir path 0o755;
  (match Store.put store ~config ~request_key "payload" with
  | () -> Alcotest.fail "a put over a directory must fail"
  | exception (Unix.Unix_error _ | Sys_error _) -> ());
  Alcotest.(check (list string)) "no temp file left" [] (temp_files dir)

(* ------------------------------------------------------------------ *)
(* Request keys: the arch-name collision regression                   *)
(* ------------------------------------------------------------------ *)

(* Two fixed architectures with identical capacities formulate
   bit-identical GPs — problem_key collides by design (that is what
   dedupe wants) — but they are different requests: request_key must
   separate them, or a shared store would serve one arch's cached
   report for the other. *)
let test_request_key_covers_arch () =
  let a = Arch.make ~name:"eyeriss-like" ~pes:64 ~registers:64 ~sram_words:8192 in
  let b = Arch.make ~name:"prototype-9" ~pes:64 ~registers:64 ~sram_words:8192 in
  let nest =
    Workload.Conv.to_nest (Workload.Zoo.find "resnet-2")
  in
  let plan = Thistle.Permutations.enumerate ~max_choices:2 nest in
  let choice = List.hd plan.Thistle.Permutations.choices in
  let placement = List.hd plan.Thistle.Permutations.placements in
  let problem arch =
    (F.build ~placement tech (F.Fixed arch) F.Energy plan choice).F.problem
  in
  Alcotest.(check string)
    "problem_key collides (same GP)"
    (O.problem_key (problem a))
    (O.problem_key (problem b));
  let key arch = O.request_key ~config:base tech (F.Fixed arch) F.Energy nest in
  if String.equal (key a) (key b) then
    Alcotest.fail "request_key must separate same-capacity arches by name";
  if
    String.equal
      (Store.digest ~config:"c" ~request_key:(key a))
      (Store.digest ~config:"c" ~request_key:(key b))
  then Alcotest.fail "store digests must differ too"

(* ------------------------------------------------------------------ *)
(* Daemon end to end                                                  *)
(* ------------------------------------------------------------------ *)

let with_server ?store_dir ?(max_inflight = 8) ?(base = base) ?max_frame f =
  let cfg = Server.default (Server.Tcp 0) in
  let cfg =
    {
      cfg with
      Server.store_dir;
      base;
      max_inflight;
      max_frame = Option.value max_frame ~default:cfg.Server.max_frame;
    }
  in
  match Server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok t ->
    let port =
      match Server.address t with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> Alcotest.fail "expected a TCP address"
    in
    Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f port)

let connect port =
  match Client.connect (Client.tcp_addr port) with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let ask client r =
  match Client.request client r with
  | Ok resp -> resp
  | Error m -> Alcotest.failf "request: %s" m

let payload = function
  | Protocol.Payload { body; cached } -> (body, cached)
  | Protocol.Refused { message; _ } -> Alcotest.failf "refused: %s" message

let test_serve_miss_then_hit_byte_identical () =
  let dir = temp_dir "thistle-serve" in
  with_server ~store_dir:dir @@ fun port ->
  Obs.Metrics.reset ();
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let cold, cold_cached = payload (ask c req) in
  let warm, warm_cached = payload (ask c req) in
  Alcotest.(check bool) "first is a miss" false cold_cached;
  Alcotest.(check bool) "second is a hit" true warm_cached;
  Alcotest.(check string) "hit replays the exact bytes" cold warm;
  (* And both equal what the CLI's renderer produces from a cold local
     solve with the same effective config. *)
  let config = { base with O.top_choices = 1; max_choices = 4 } in
  let expected =
    match O.dataflow ~config tech arch F.Energy
            (Workload.Conv.to_nest (Workload.Zoo.find "resnet-2"))
    with
    | Ok report -> Render.outcome ~tech report
    | Error m -> Alcotest.failf "local solve failed: %s" m
  in
  Alcotest.(check string) "served = local render" expected cold;
  Alcotest.(check int) "requests" 2 (counter "serve.requests");
  Alcotest.(check int) "misses" 1 (counter "serve.cache_misses");
  Alcotest.(check int) "hits" 1 (counter "serve.cache_hits");
  Alcotest.(check int) "rejected" 0 (counter "serve.rejected")

let test_serve_survives_bad_frames () =
  let dir = temp_dir "thistle-serve" in
  with_server ~store_dir:dir ~max_frame:4096 @@ fun port ->
  (* Garbage payload in a well-formed frame: answered, connection kept. *)
  let c = connect port in
  (match Client.request_raw c "definitely { not a request" with
  | Ok (Protocol.Refused { kind = Protocol.Bad_request; _ }) -> ()
  | Ok _ -> Alcotest.fail "garbage must be refused"
  | Error m -> Alcotest.failf "transport error: %s" m);
  (* Same connection still serves real requests afterwards. *)
  (match ask c Protocol.Metrics with
  | Protocol.Payload _ -> ()
  | Protocol.Refused { message; _ } -> Alcotest.failf "refused: %s" message);
  Client.close c;
  (* Oversized frame: refused, connection dropped, daemon alive. *)
  let c = connect port in
  (match Client.request_raw c (String.make 8192 'x') with
  | Ok (Protocol.Refused { kind = Protocol.Bad_request; _ }) -> ()
  | Ok _ -> Alcotest.fail "oversized must be refused"
  | Error m -> Alcotest.failf "transport error: %s" m);
  Client.close c;
  (* Torn frame: half a header, then hang up.  The daemon must shrug. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Client.tcp_addr port);
  ignore (Unix.write_substring fd "\x00\x00" 0 2);
  Unix.close fd;
  (* Fresh connection proves the daemon survived all three. *)
  let c = connect port in
  (match ask c Protocol.Metrics with
  | Protocol.Payload _ -> ()
  | Protocol.Refused { message; _ } -> Alcotest.failf "refused: %s" message);
  (match ask c (Protocol.Optimize { layer = "no-such-layer"; objective = F.Energy; arch; opts }) with
  | Protocol.Refused { kind = Protocol.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "unknown layer must be a bad request");
  Client.close c

(* An optimize frame with the given arch sizes, spelled out so that it
   can carry values [Protocol.Optimize] cannot hold. *)
let arch_frame ~pes ~regs ~sram =
  Printf.sprintf
    "{\"v\":1,\"req\":\"optimize\",\"layer\":\"resnet-2\",\"objective\":\"energy\",\
     \"arch\":{\"name\":\"z\",\"pes\":%d,\"regs\":%d,\"sram\":%d},\
     \"top\":1,\"max\":4,\"node\":\"%Lx\"}"
    pes regs sram
    (Int64.bits_of_float Archspec.Technology.reference_node_nm)

(* [Arch.make] raises on a non-positive size: the decoder must return
   that as an [Error], so the daemon answers [Bad_request] and keeps the
   connection instead of losing its handler. *)
let test_serve_zero_arch_frame () =
  (match Protocol.decode_request (arch_frame ~pes:64 ~regs:64 ~sram:8192) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "valid frame refused: %s" m);
  List.iter
    (fun (pes, regs, sram) ->
      match Protocol.decode_request (arch_frame ~pes ~regs ~sram) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoded a %d/%d/%d arch" pes regs sram)
    [ (0, 64, 8192); (64, 0, 8192); (64, 64, 0); (-1, 64, 8192) ];
  with_server @@ fun port ->
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.request_raw c (arch_frame ~pes:0 ~regs:64 ~sram:8192) with
  | Ok (Protocol.Refused { kind = Protocol.Bad_request; _ }) -> ()
  | Ok _ -> Alcotest.fail "a zero-PE request must be refused"
  | Error m -> Alcotest.failf "transport error: %s" m);
  match ask c Protocol.Metrics with
  | Protocol.Payload _ -> ()
  | Protocol.Refused { message; _ } -> Alcotest.failf "refused: %s" message

let test_serve_fingerprint_invalidates () =
  let dir = temp_dir "thistle-serve" in
  (* Warm the store. *)
  with_server ~store_dir:dir (fun port ->
      Obs.Metrics.reset ();
      let c = connect port in
      ignore (payload (ask c req));
      Client.close c;
      Alcotest.(check int) "cold run misses" 1 (counter "serve.cache_misses"));
  (* A solver-behavior change must force a re-solve on the same store. *)
  let tightened = { base with O.gp_tol = base.O.gp_tol *. 0.5 } in
  with_server ~store_dir:dir ~base:tightened (fun port ->
      Obs.Metrics.reset ();
      let c = connect port in
      let _, cached = payload (ask c req) in
      Client.close c;
      Alcotest.(check bool) "tightened config re-solves" false cached;
      Alcotest.(check int) "miss counted" 1 (counter "serve.cache_misses"));
  (* The original config's entry is untouched: a restart hits warm. *)
  with_server ~store_dir:dir (fun port ->
      Obs.Metrics.reset ();
      let c = connect port in
      let _, cached = payload (ask c req) in
      Client.close c;
      Alcotest.(check bool) "restart hits warm" true cached;
      Alcotest.(check int) "no miss" 0 (counter "serve.cache_misses"))

let rec find_entries dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then find_entries path
         else if Filename.check_suffix name ".json" then [ path ]
         else [])

let test_serve_corrupted_entry_re_solves () =
  let dir = temp_dir "thistle-serve" in
  with_server ~store_dir:dir @@ fun port ->
  Obs.Metrics.reset ();
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let cold, _ = payload (ask c req) in
  (match find_entries dir with
  | [ entry ] ->
    (* Truncate the entry mid-payload. *)
    let oc = open_out_bin entry in
    output_string oc "{\"v\":1,\"config\":\"tor";
    close_out oc
  | entries -> Alcotest.failf "expected 1 store entry, found %d" (List.length entries));
  let again, cached = payload (ask c req) in
  Alcotest.(check bool) "corrupted entry re-solves" false cached;
  Alcotest.(check string) "re-solve reproduces the bytes" cold again;
  Alcotest.(check int) "misses" 2 (counter "serve.cache_misses");
  let warm, cached = payload (ask c req) in
  Alcotest.(check bool) "entry repaired" true cached;
  Alcotest.(check string) "repaired bytes" cold warm

(* A store that cannot be written (here its directory was replaced by
   a plain file) costs the cache, never the answer or the connection. *)
let test_serve_store_write_failure () =
  let dir = temp_dir "thistle-serve" in
  with_server ~store_dir:dir @@ fun port ->
  Unix.rmdir dir;
  Out_channel.with_open_bin dir (fun oc -> output_string oc "not a directory");
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let cold, cached = payload (ask c req) in
  Alcotest.(check bool) "answered uncached" false cached;
  let again, cached = payload (ask c req) in
  Alcotest.(check bool) "connection kept, still a miss" false cached;
  Alcotest.(check string) "same bytes" cold again

let test_serve_arch_name_no_collision () =
  let dir = temp_dir "thistle-serve" in
  with_server ~store_dir:dir @@ fun port ->
  Obs.Metrics.reset ();
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let named name =
    Protocol.Optimize
      {
        layer = "resnet-2";
        objective = F.Energy;
        arch = Arch.make ~name ~pes:64 ~registers:64 ~sram_words:8192;
        opts;
      }
  in
  let _, cached_a = payload (ask c (named "arch-a")) in
  let _, cached_b = payload (ask c (named "arch-b")) in
  Alcotest.(check bool) "first arch misses" false cached_a;
  Alcotest.(check bool) "same-capacity, different-name arch must not hit" false
    cached_b;
  Alcotest.(check int) "two distinct store keys" 2 (counter "serve.cache_misses");
  Alcotest.(check int) "no false hit" 0 (counter "serve.cache_hits")

let test_serve_admission_rejects () =
  (* max_inflight = 0 turns every solve-type request away, determin-
     istically; metrics bypasses admission so the daemon stays
     observable under overload. *)
  with_server ~max_inflight:0 @@ fun port ->
  Obs.Metrics.reset ();
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match ask c req with
  | Protocol.Refused { kind = Protocol.Rejected; _ } -> ()
  | Protocol.Refused { message; _ } -> Alcotest.failf "wrong refusal: %s" message
  | Protocol.Payload _ -> Alcotest.fail "must be rejected at capacity 0");
  (match ask c Protocol.Metrics with
  | Protocol.Payload _ -> ()
  | Protocol.Refused _ -> Alcotest.fail "metrics must bypass admission");
  Alcotest.(check int) "rejected" 1 (counter "serve.rejected");
  Alcotest.(check int) "requests counted" 2 (counter "serve.requests")

let test_serve_injected_fault_is_contained () =
  (* crash@serve fires inside the guarded solve thunk: the request
     fails structurally, nothing is cached, and the daemon keeps
     serving. *)
  let inject = Result.get_ok (Robust.Inject.parse "seed=3,crash@serve=1") in
  let faulty = { base with O.inject } in
  let dir = temp_dir "thistle-serve" in
  with_server ~store_dir:dir ~base:faulty @@ fun port ->
  Obs.Metrics.reset ();
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match ask c req with
  | Protocol.Refused { kind = Protocol.Failed; _ } -> ()
  | Protocol.Refused { message; _ } -> Alcotest.failf "wrong refusal: %s" message
  | Protocol.Payload _ -> Alcotest.fail "injected crash must fail the request");
  Alcotest.(check int) "failed request still a miss" 1
    (counter "serve.cache_misses");
  Alcotest.(check int) "nothing cached" 0 (counter "serve.cache_hits");
  (* Failures are not cached: the next attempt re-runs (and re-fails,
     same seed — decisions are deterministic). *)
  (match ask c req with
  | Protocol.Refused { kind = Protocol.Failed; _ } -> ()
  | _ -> Alcotest.fail "still failing, still alive");
  (match ask c Protocol.Metrics with
  | Protocol.Payload _ -> ()
  | Protocol.Refused _ -> Alcotest.fail "daemon must survive injected faults")

let test_serve_concurrent_clients () =
  let dir = temp_dir "thistle-serve" in
  with_server ~store_dir:dir @@ fun port ->
  Obs.Metrics.reset ();
  let n = 4 in
  let results = Array.make n (Error "unset") in
  let worker i =
    match Client.connect (Client.tcp_addr port) with
    | Error m -> results.(i) <- Error m
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.request c req with
          | Ok (Protocol.Payload { body; _ }) -> results.(i) <- Ok body
          | Ok (Protocol.Refused { message; _ }) -> results.(i) <- Error message
          | Error m -> results.(i) <- Error m)
  in
  let threads = List.init n (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  let bodies =
    Array.to_list results
    |> List.map (function
         | Ok body -> body
         | Error m -> Alcotest.failf "concurrent client failed: %s" m)
  in
  let first = List.hd bodies in
  List.iteri
    (fun i body ->
      Alcotest.(check string) (Printf.sprintf "client %d bit-identical" i) first body)
    bodies;
  (* Single-flight: identical concurrent requests solve once; the
     followers hit the store the leader populated. *)
  Alcotest.(check int) "requests" n (counter "serve.requests");
  Alcotest.(check int) "one miss" 1 (counter "serve.cache_misses");
  Alcotest.(check int) "followers hit" (n - 1) (counter "serve.cache_hits")

(* ------------------------------------------------------------------ *)
(* Property: replay determinism and jobs-independence                 *)
(* ------------------------------------------------------------------ *)

(* One daemon round: reset counters, ask twice, return the transcript. *)
let round ~jobs r =
  let dir = temp_dir "thistle-serve-prop" in
  with_server ~store_dir:dir ~base:{ base with O.jobs } @@ fun port ->
  Obs.Metrics.reset ();
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let first = ask c r in
  let second = ask c r in
  let counters = Obs.Metrics.counters (Obs.Metrics.snapshot ()) in
  (first, second, counters)

let prop_replay_deterministic =
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 0 2) (int_range 0 1) (int_range 0 1) (int_range 0 1))
  in
  QCheck2.Test.make
    ~name:"serve: ask twice = identical bytes, one miss, any --jobs" ~count:3 gen
    (fun (obj_i, pe_i, top_i, max_i) ->
      let objective = List.nth [ F.Energy; F.Delay; F.Edp ] obj_i in
      let arch =
        Arch.make ~name:"prop"
          ~pes:(List.nth [ 64; 128 ] pe_i)
          ~registers:64 ~sram_words:8192
      in
      let opts =
        {
          Protocol.top_choices = 1 + top_i;
          max_choices = List.nth [ 2; 4 ] max_i;
          node_nm = Archspec.Technology.reference_node_nm;
        }
      in
      let r = Protocol.Optimize { layer = "resnet-2"; objective; arch; opts } in
      let check_round (first, second, counters) =
        let c name =
          match List.assoc_opt name counters with Some v -> v | None -> 0
        in
        (match (first, second) with
        | Protocol.Payload { body = b1; cached = c1 },
          Protocol.Payload { body = b2; cached = c2 } ->
          if c1 then QCheck2.Test.fail_report "first answer claimed cached";
          if not c2 then QCheck2.Test.fail_report "second answer not cached";
          if not (String.equal b1 b2) then
            QCheck2.Test.fail_report "replay differs from cold bytes";
          if c "serve.cache_misses" <> 1 then
            QCheck2.Test.fail_report "expected exactly one miss";
          if c "serve.cache_hits" <> 1 then
            QCheck2.Test.fail_report "expected exactly one hit"
        | Protocol.Refused { message = m1; _ }, Protocol.Refused { message = m2; _ }
          ->
          (* An infeasible request must fail identically both times and
             never populate the store. *)
          if not (String.equal m1 m2) then
            QCheck2.Test.fail_report "refusals differ between attempts";
          if c "serve.cache_hits" <> 0 then
            QCheck2.Test.fail_report "a failure was cached"
        | _ -> QCheck2.Test.fail_report "outcome flipped between attempts");
        counters
      in
      let seq = check_round (round ~jobs:1 r) in
      let par = check_round (round ~jobs:2 r) in
      (* The §9 contract, through the daemon: the full deterministic
         counter slice is a function of the request sequence alone. *)
      if seq <> par then
        QCheck2.Test.fail_report "counters differ between --jobs 1 and 2";
      (match (round ~jobs:1 r, round ~jobs:2 r) with
      | (Protocol.Payload { body = b1; _ }, _, _), (Protocol.Payload { body = b2; _ }, _, _)
        ->
        if not (String.equal b1 b2) then
          QCheck2.Test.fail_report "bodies differ between --jobs 1 and 2"
      | (Protocol.Refused _, _, _), (Protocol.Refused _, _, _) -> ()
      | _ -> QCheck2.Test.fail_report "outcome differs between --jobs 1 and 2");
      true)

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "clean close" `Quick test_wire_closed;
          Alcotest.test_case "torn frames" `Quick test_wire_torn;
          Alcotest.test_case "oversized/garbage prefix" `Quick test_wire_oversized;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_protocol_rejects_garbage;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "corruption is a miss" `Quick
            test_store_corruption_is_a_miss;
          Alcotest.test_case "failed put leaves no temp file" `Quick
            test_store_failed_put_cleans_up;
        ] );
      ( "request-key",
        [
          Alcotest.test_case "arch name enters the key" `Quick
            test_request_key_covers_arch;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "miss then hit, byte-identical" `Quick
            test_serve_miss_then_hit_byte_identical;
          Alcotest.test_case "survives torn/oversized/garbage frames" `Quick
            test_serve_survives_bad_frames;
          Alcotest.test_case "zero-PE frame refused, connection kept" `Quick
            test_serve_zero_arch_frame;
          Alcotest.test_case "config fingerprint invalidates" `Quick
            test_serve_fingerprint_invalidates;
          Alcotest.test_case "corrupted entry re-solves" `Quick
            test_serve_corrupted_entry_re_solves;
          Alcotest.test_case "store write failure still answers" `Quick
            test_serve_store_write_failure;
          Alcotest.test_case "arch-name requests do not collide" `Quick
            test_serve_arch_name_no_collision;
          Alcotest.test_case "admission rejects at capacity" `Quick
            test_serve_admission_rejects;
          Alcotest.test_case "injected fault is contained" `Quick
            test_serve_injected_fault_is_contained;
          Alcotest.test_case "concurrent clients single-flight" `Quick
            test_serve_concurrent_clients;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_replay_deterministic ] );
    ]
