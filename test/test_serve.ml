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

(* A loopback TCP listener; [f] gets it and its address. *)
let with_listener f =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close listener) @@ fun () ->
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  f listener (Unix.getsockname listener)

(* Close with SO_LINGER 0: the peer gets a reset instead of EOF. *)
let reset fd =
  Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
  Unix.close fd

let test_wire_reset_torn () =
  with_listener @@ fun listener addr ->
  let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect a addr;
  let b, _ = Unix.accept listener in
  Fun.protect ~finally:(fun () -> Unix.close b) @@ fun () ->
  ignore (Unix.write_substring a "\x00\x00" 0 2);
  reset a;
  match Wire.read_frame b with
  | Error (Wire.Torn 2) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Torn 2"

let test_client_reset_is_error () =
  with_listener @@ fun listener addr ->
  let peer =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        ignore (Wire.read_frame fd);
        reset fd)
      ()
  in
  let c =
    match Client.connect addr with Ok c -> c | Error m -> Alcotest.failf "connect: %s" m
  in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      Thread.join peer)
  @@ fun () ->
  match Client.request c Protocol.Metrics with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a reset connection cannot answer"

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
  Alcotest.(check (list string)) "no temp file left" [] (temp_files dir);
  (* A writer killed between write and rename leaves its temp file; the
     next open removes it once its PID no longer runs.  Daemons may
     share a store, so the temp files of this process and of a live one
     (this test's parent) stay. *)
  let dead_pid =
    let pid = Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr in
    ignore (Unix.waitpid [] pid);
    pid
  in
  let leftover pid = Printf.sprintf ".tmp-%d-0" pid in
  List.iter
    (fun pid -> close_out (open_out (Filename.concat dir (leftover pid))))
    [ dead_pid; Unix.getpid (); Unix.getppid () ];
  ignore (Result.get_ok (Store.open_ dir));
  Alcotest.(check (list string))
    "only the dead writer's temp file removed"
    (List.sort compare [ leftover (Unix.getpid ()); leftover (Unix.getppid ()) ])
    (List.sort compare (temp_files dir))

(* Entry names.  The digest keeps the value stores have always been
   written under, so an existing store stays valid; it is deterministic,
   16 hex digits, and changes with the config, the request key and the
   boundary between them. *)
let test_store_digest () =
  let base = Store.digest ~config:"cfg-a" ~request_key:"key-a" in
  Alcotest.(check string) "pinned" "79cafc5bb4dc8315" base;
  Alcotest.(check string) "deterministic" base
    (Store.digest ~config:"cfg-a" ~request_key:"key-a");
  Alcotest.(check int) "16 hex digits" 16 (String.length base);
  Alcotest.(check bool) "hex" true
    (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) base);
  Alcotest.(check bool) "config changes digest" true
    (base <> Store.digest ~config:"cfg-b" ~request_key:"key-a");
  Alcotest.(check bool) "request key changes digest" true
    (base <> Store.digest ~config:"cfg-a" ~request_key:"key-b");
  (* the separator keeps (config, key) unambiguous *)
  Alcotest.(check bool) "boundary matters" true
    (Store.digest ~config:"ab" ~request_key:"c" <> Store.digest ~config:"a" ~request_key:"bc")

(* The store's other key half, pinned for the default config: its text
   changes only on purpose, with a version bump whenever the same
   settings compute a different served body (the [solver:] line's
   counts included), so an older daemon's entries never replay. *)
let test_config_fingerprint_pinned () =
  Alcotest.(check string)
    "default config"
    "v5|tol=3eb0c6f7a0b5ed8d|kernel=compiled|warm=true|inject=seed=0|presolve=prune|comm=comm"
    (O.config_fingerprint O.default_config)

(* What addresses the store: each request kind's entry name under the
   default fingerprint, at a non-default node and caps.  perfbench
   starts every run on an empty store, so without these pins a key
   changed by one byte would pass every test while every stored entry
   silently missed. *)
let test_store_addresses_pinned () =
  let opts = { Protocol.top_choices = 2; max_choices = 3; node_nm = 16.0 } in
  let address r =
    match Protocol.resolve base r with
    | Error m -> Alcotest.failf "resolve: %s" m
    | Ok r ->
      ( r.Protocol.key,
        Store.digest ~config:(O.config_fingerprint r.Protocol.config) ~request_key:r.Protocol.key )
  in
  let optimize = Protocol.Optimize { layer = "resnet-2"; objective = F.Delay; arch; opts } in
  List.iter
    (fun (name, r, pin) -> Alcotest.(check string) name pin (snd (address r)))
    [
      ("optimize", optimize, "ab87b81bd1bbd543");
      ( "codesign",
        Protocol.Codesign { layer = "yolo-7"; objective = F.Edp; area = None; opts },
        "533955249d2726a5" );
      ( "codesign with area",
        Protocol.Codesign { layer = "yolo-7"; objective = F.Energy; area = Some 1234.5; opts },
        "07a41efd76cbeecf" );
      ( "pipeline",
        Protocol.Pipeline { pipeline = "alexnet"; objective = F.Energy; opts },
        "cdee47fdee3e548b" );
    ];
  Alcotest.(check string)
    "optimize key text"
    "rk2|tech:40639650266e7da9;40041987dd653738;3feb888081d799ad;3fd1ccc653ca7fca;3f52c7d01a6e050d;3f62845f0e4ba394;4060000000000000;4020000000000000;4054000000000000;links:4020000000000000;4040000000000000;4010000000000000;4054000000000000;4030000000000000;3ff0000000000000;4010000000000000;3ff0000000000000;0;|arch:t:64:64:8192|obj:delay|nest:resnet-2;n=1;k=64;c=64;r=3;s=3;h=56;w=56|T:Out:true[1*n,][1*k,][1*h,][1*w,]|T:In:false[1*n,][1*c,][1*h,1*r,][1*w,1*s,]|T:Ker:false[1*k,][1*c,][1*r,][1*s,]|cfg:nd=2;np=2;top=2;max=3;expl=true;util=0;lint=enforce;comm=comm;cont=false"
    (fst (address optimize))

(* The Printf-built [request_key] and [config_fingerprint] that the
   buffer appends replaced, kept as references: their text addresses
   every stored entry. *)
let request_key_reference ~(config : O.config) (tech : Archspec.Technology.t) arch_mode objective
    nest =
  let buf = Buffer.create 512 in
  let add = Buffer.add_string buf in
  let fl v = add (Printf.sprintf "%Lx;" (Int64.bits_of_float v)) in
  add "rk2|tech:";
  List.iter fl
    Archspec.Technology.
      [
        tech.area_mac;
        tech.area_register;
        tech.area_sram_word;
        tech.energy_mac;
        tech.sigma_register;
        tech.sigma_sram;
        tech.energy_dram;
        tech.dram_bandwidth;
        tech.sram_bandwidth;
      ];
  add "links:";
  List.iter
    (fun (l : Archspec.Link.t) ->
      fl l.Archspec.Link.bandwidth;
      fl l.Archspec.Link.burst_words;
      fl l.Archspec.Link.burst_overhead)
    Archspec.Link.[ tech.links.dram; tech.links.noc; tech.links.reg ];
  (match arch_mode with
  | F.Fixed a ->
    add
      (Printf.sprintf "|arch:%s:%d:%d:%d" a.Arch.arch_name a.Arch.pe_count a.Arch.registers_per_pe
         a.Arch.sram_words)
  | F.Codesign { area_budget } ->
    add "|codesign:";
    fl area_budget);
  add
    (match objective with
    | F.Energy -> "|obj:energy"
    | F.Delay -> "|obj:delay"
    | F.Edp -> "|obj:edp");
  add (Printf.sprintf "|nest:%s" (Workload.Nest.name nest));
  List.iter
    (fun (d : Workload.Nest.dim) ->
      add (Printf.sprintf ";%s=%d" d.Workload.Nest.dim_name d.Workload.Nest.extent))
    (Workload.Nest.dims nest);
  List.iter
    (fun (t : Workload.Nest.tensor) ->
      add (Printf.sprintf "|T:%s:%b" t.Workload.Nest.tensor_name t.Workload.Nest.read_write);
      List.iter
        (fun (proj : Workload.Nest.projection) ->
          add "[";
          List.iter
            (fun (ix : Workload.Nest.index) ->
              add (Printf.sprintf "%d*%s," ix.Workload.Nest.stride ix.Workload.Nest.iter))
            proj;
          add "]")
        t.Workload.Nest.projections)
    (Workload.Nest.tensors nest);
  add
    (Printf.sprintf "|cfg:nd=%d;np=%d;top=%d;max=%d;expl=%b;util=" config.O.n_divisors
       config.O.n_pow2 config.O.top_choices config.O.max_choices config.O.explore_placements);
  fl config.O.min_pe_utilization;
  add ("lint=" ^ Analysis.Lint.mode_name config.O.lint);
  add
    (Printf.sprintf ";comm=%s;cont=%b"
       (Archspec.Link.comm_model_name config.O.comm)
       config.O.contention);
  Buffer.contents buf

let config_fingerprint_reference (config : O.config) =
  Printf.sprintf
    "v5|tol=%Lx|kernel=%s|warm=%b|inject=%s|presolve=%s|comm=%s"
    (Int64.bits_of_float config.O.gp_tol)
    (match config.O.gp_kernel with `Compiled -> "compiled" | `List -> "list")
    config.O.warm_start
    (Robust.Inject.to_string config.O.inject)
    (Analysis.Presolve.mode_name config.O.presolve)
    (Archspec.Link.comm_model_name config.O.comm)

(* Configs that move every field either text reads. *)
let key_configs =
  [
    O.default_config;
    {
      O.default_config with
      O.n_divisors = 3;
      n_pow2 = 5;
      top_choices = 7;
      max_choices = 12;
      explore_placements = false;
      min_pe_utilization = 0.375;
      lint = Analysis.Lint.Warn;
      comm = Archspec.Link.Overlapped;
      contention = true;
      gp_tol = 1e-9;
      gp_kernel = `List;
      warm_start = false;
      presolve = Analysis.Presolve.Off;
    };
    {
      O.default_config with
      O.top_choices = 1;
      max_choices = 1_000_000;
      lint = Analysis.Lint.Off;
      contention = true;
      inject =
        (match Robust.Inject.parse "seed=-7,crash@solve[yolo]=0.25" with
        | Ok t -> t
        | Error m -> failwith m);
    };
  ]

let test_request_key_reference () =
  let techs =
    [ tech; Archspec.Technology.scale_to_node tech ~node_nm:16.0 ]
  in
  let checked = ref 0 in
  List.iter
    (fun config ->
      Alcotest.(check string) "config_fingerprint" (config_fingerprint_reference config)
        (O.config_fingerprint config);
      List.iter
        (fun layer ->
          let nest = Workload.Conv.to_nest layer in
          List.iter
            (fun tech ->
              List.iter
                (fun mode ->
                  List.iter
                    (fun objective ->
                      incr checked;
                      let expected = request_key_reference ~config tech mode objective nest in
                      let got = O.request_key ~config tech mode objective nest in
                      if not (String.equal expected got) then
                        Alcotest.failf "request_key of %s differs:\n%s\n%s"
                          (Workload.Nest.name nest) expected got)
                    [ F.Energy; F.Delay; F.Edp ])
                [
                  F.Fixed Arch.eyeriss;
                  F.Fixed (Arch.make ~name:"x:y|z" ~pes:3 ~registers:1 ~sram_words:max_int);
                  F.Codesign { area_budget = Arch.eyeriss_area tech };
                  F.Codesign { area_budget = -0.0 };
                ])
            techs)
        Workload.Zoo.all_layers)
    key_configs;
  Alcotest.(check int) "keys checked" (3 * 41 * 2 * 4 * 3) !checked

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
    (F.build ~placement ~comm:Archspec.Link.Overlapped tech (F.Fixed arch) F.Energy plan choice).F.problem
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

(* A node so extreme that the (node/45)^2 technology scaling leaves the
   float range is refused as a bad request before any solve, and the
   connection stays usable. *)
let test_serve_extreme_node_refused () =
  with_server @@ fun port ->
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter
    (fun node_nm ->
      let r =
        Protocol.Optimize
          { layer = "resnet-2"; objective = F.Energy; arch; opts = { opts with node_nm } }
      in
      match ask c r with
      | Protocol.Refused { kind = Protocol.Bad_request; _ } -> ()
      | Protocol.Refused { message; _ } ->
        Alcotest.failf "node %g: refused, but not as a bad request: %s" node_nm message
      | Protocol.Payload _ -> Alcotest.failf "node %g must be refused" node_nm)
    [ 1e300; 1e-300; 1e-160 ];
  match ask c Protocol.Metrics with
  | Protocol.Payload _ -> ()
  | Protocol.Refused { message; _ } -> Alcotest.failf "refused: %s" message

(* A frame as large as the daemon reads, of nothing but nested
   objects: the decoder refuses it at the 65th level, so the daemon
   answers [Bad_request] at once and keeps the connection. *)
let test_serve_deep_nesting_refused () =
  let frame = String.init (Wire.default_max_frame - 4) (fun i -> {|{"k":|}.[i mod 5]) in
  (match Protocol.decode_request frame with
  | Error m ->
    Alcotest.(check string) "decode error" "request: nesting deeper than 64 at offset 320" m
  | Ok _ -> Alcotest.fail "a deep frame must not decode");
  with_server @@ fun port ->
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.request_raw c frame with
  | Ok (Protocol.Refused { kind = Protocol.Bad_request; _ }) -> ()
  | Ok _ -> Alcotest.fail "a deep frame must be a bad request"
  | Error m -> Alcotest.failf "transport error: %s" m);
  match ask c Protocol.Metrics with
  | Protocol.Payload _ -> ()
  | Protocol.Refused { message; _ } -> Alcotest.failf "refused: %s" message

(* A node that passes the resolver but makes a scaled constant times the
   layer's MAC count overflow: the formulate stage refuses the request,
   naming the pair and the coefficient, and the connection stays
   usable. *)
let test_serve_overflowing_coefficient_refused () =
  with_server @@ fun port ->
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let r =
    Protocol.Optimize
      {
        layer = "resnet-2";
        objective = F.Energy;
        arch;
        opts = { opts with node_nm = 1e154; max_choices = 1 };
      }
  in
  (match ask c r with
  | Protocol.Refused { kind = Protocol.Failed; message } ->
    let mentions sub =
      let n = String.length sub and m = String.length message in
      let rec at i = i + n <= m && (String.sub message i n = sub || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "names the pair and the coefficient: %s" message)
      true
      (mentions "cannot formulate resnet-2 energy pe=[" && mentions "MAC energy coefficient")
  | Protocol.Refused { message; _ } -> Alcotest.failf "refused, but not as failed: %s" message
  | Protocol.Payload _ -> Alcotest.fail "node 1e154 must be refused");
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

(* A directory planted at the request's entry path cannot be read: the
   lookup is a miss, and the daemon answers uncached and keeps serving
   the connection. *)
let test_serve_unreadable_entry () =
  let dir = temp_dir "thistle-serve" in
  let r = Result.get_ok (Protocol.resolve base req) in
  let config = O.config_fingerprint r.Protocol.config and request_key = r.Protocol.key in
  let store = Result.get_ok (Store.open_ dir) in
  let path = Store.entry_path store ~config ~request_key in
  Unix.mkdir (Filename.dirname path) 0o755;
  Unix.mkdir path 0o755;
  Alcotest.(check (option string))
    "unreadable entry is a miss" None
    (Store.get store ~config ~request_key);
  with_server ~store_dir:dir @@ fun port ->
  let c = connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let _, cached = payload (ask c req) in
  Alcotest.(check bool) "answered uncached" false cached;
  match ask c Protocol.Metrics with
  | Protocol.Payload _ -> ()
  | Protocol.Refused { message; _ } -> Alcotest.failf "refused: %s" message

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

(* The quarantine a crash-injected sweep reports, resolved and rendered
   as [thistle optimize --layer resnet-2 --max-choices 4] does (the
   CLI's own path), with crashes injected into 30% of the solves.  The
   pinned provenances and design were captured from that CLI run with
   [--inject seed=11,crash@solve=0.3 --retries 0]; the elapsed-ms
   column is wall clock and blanked. *)
let test_injected_quarantine_pinned () =
  let inject = Result.get_ok (Robust.Inject.parse "seed=11,crash@solve=0.3") in
  let base = { O.default_config with O.jobs = 1; inject } in
  let eyeriss = Result.get_ok (Protocol.arch ~name:"cli" ~pes:168 ~regs:512 ~sram:65536) in
  let r =
    Protocol.Optimize
      {
        layer = "resnet-2";
        objective = F.Energy;
        arch = eyeriss;
        opts = { Protocol.default_opts with Protocol.max_choices = 4 };
      }
  in
  let body =
    match Result.bind (Protocol.resolve base r) Protocol.render with
    | Ok body -> body
    | Error m -> Alcotest.failf "render: %s" m
  in
  let blank_ms line =
    if String.length line > 21 && String.sub line 0 6 = "solve " then
      String.sub line 0 12 ^ "       ms" ^ String.sub line 21 (String.length line - 21)
    else line
  in
  let row prov = {|solve              ms  Robust.Injected_fault("injected crash... |} ^ prov in
  let prov = Printf.sprintf "resnet-2 energy pe=[k,c,h,w] dram=[%s] spatial{%s}" in
  Alcotest.(check (list string))
    "report"
    [
      "explored 4 pruned permutation choices, 12 programs solved";
      "solver: solves=16 phase1-outer=24 phase2-outer=84 newton=920 backtracks=750 kkt-reg=0 chol-fallback=0 max-gap=2.97e-07";
      "quarantined 4 pair(s):";
      "site               ms  exception                                provenance";
      row (prov "k,c,h,w" "s=3");
      row (prov "k,c,h,w" "r=3,s=3");
      row (prov "k,h,c,w" "s=3");
      row (prov "k,h,w,c" "r=3,s=3");
      "architecture: cli: P=168 R=512/PE S=65536 words (area 2363756 um^2)";
      "mapping:";
      "reg(temporal): k=8 c=4 r=3 s=3 h=4 w=2 perm=nkcrshw";
      "pe(temporal): w=14 perm=kchwnrs";
      "spatial(spatial): k=8 c=16";
      "dram(temporal): h=14 w=2 perm=kcwhnrs";
      "metrics:";
      "energy 2.505e+09 pJ (21.668 pJ/MAC): mac 2.4e+09, reg 8.15e+06, sram 1.11e+07, dram 8.46e+07";
      "cycles 9.032e+05 (compute 9.032e+05, sram 3.021e+04, dram 8.262e+04), IPC 128.00, PEs 128";
      "links: dram-rd 1.151e+05 cyc (460288 w, 14384 bursts) dram-wr 5.018e+04 cyc (200704 w, 6272 bursts) noc-rd 1.167e+05 cyc (1.55546e+06 w, 97216 bursts) noc-wr 1.505e+04 cyc (200704 w, 12544 bursts) reg 9.032e+05 cyc (3.61267e+06 w, 3.61267e+06 bursts)";
      "binding: compute";
    ]
    (List.map blank_ms (String.split_on_char '\n' (String.trim body)))

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
(* Property: the decoders stay total under mutation                   *)
(* ------------------------------------------------------------------ *)

let gen_opts =
  QCheck2.Gen.(
    map3
      (fun top_choices max_choices node_nm -> { Protocol.top_choices; max_choices; node_nm })
      (int_range (-2) 600) (int_range (-2) 600) float)

let gen_request =
  let open QCheck2.Gen in
  let* layer = oneofl [ "resnet-2"; "yolo-7"; "alexnet"; "no\"such\\layer\n" ] in
  let* objective = oneofl [ F.Energy; F.Delay; F.Edp ] in
  let* opts = gen_opts in
  oneof
    [
      map2
        (fun name pes ->
          Protocol.Optimize
            {
              layer;
              objective;
              arch = Arch.make ~name ~pes ~registers:64 ~sram_words:8192;
              opts;
            })
        (string_size ~gen:char (int_range 0 12))
        (int_range 1 4096);
      map (fun area -> Protocol.Codesign { layer; objective; area; opts }) (option float);
      return (Protocol.Pipeline { pipeline = layer; objective; opts });
      return Protocol.Metrics;
    ]

let gen_response =
  let open QCheck2.Gen in
  let text = string_size ~gen:char (int_range 0 200) in
  oneof
    [
      map2 (fun body cached -> Protocol.Payload { body; cached }) text bool;
      map2
        (fun kind message -> Protocol.Refused { kind; message })
        (oneofl [ Protocol.Rejected; Protocol.Bad_request; Protocol.Failed ])
        text;
    ]

(* Truncate, flip a byte, splice two inputs, or wrap in nesting; one
   to three of them in a row. *)
let gen_mutated valid =
  let open QCheck2.Gen in
  let mutate s =
    let n = String.length s in
    oneof
      [
        map (fun k -> String.sub s 0 k) (int_range 0 n);
        map2
          (fun i c ->
            if n = 0 then String.make 1 c
            else String.mapi (fun j x -> if j = i mod n then c else x) s)
          nat char;
        (let* other = valid in
         map2
           (fun i j ->
             let m = String.length other in
             String.sub s 0 (i mod (n + 1)) ^ String.sub other (j mod (m + 1)) (m - (j mod (m + 1))))
           nat nat);
        map2
          (fun depth closed ->
            String.concat "" (List.init depth (fun _ -> "{\"k\":"))
            ^ s
            ^ if closed then String.make depth '}' else "")
          (frequency [ (4, int_range 1 64); (1, int_range 1_000 20_000) ])
          bool;
      ]
  in
  let* s = valid in
  let* rounds = int_range 1 3 in
  let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
  go rounds s

let total = function Ok _ | Error _ -> true

let prop_decoders_total =
  let print = Printf.sprintf "%S" in
  let requests = QCheck2.Gen.map Protocol.encode_request gen_request in
  let responses = QCheck2.Gen.map Protocol.encode_response gen_response in
  [
    QCheck2.Test.make ~name:"decode_request is total under mutation" ~count:500 ~print
      (gen_mutated requests) (fun s -> total (Protocol.decode_request s));
    QCheck2.Test.make ~name:"decode_response is total under mutation" ~count:500 ~print
      (gen_mutated responses) (fun s -> total (Protocol.decode_response s));
    (let dir = temp_dir "thistle-store-mutation" in
     let store = Result.get_ok (Store.open_ dir) in
     let config = O.config_fingerprint O.default_config in
     let request_key =
       O.request_key ~config:O.default_config tech (F.Fixed arch) F.Energy
         (Workload.Conv.to_nest (Workload.Zoo.find "resnet-2"))
     in
     let path = Store.entry_path store ~config ~request_key in
     let entry payload =
       Store.put store ~config ~request_key payload;
       In_channel.with_open_bin path In_channel.input_all
     in
     let entries =
       QCheck2.Gen.(map entry (string_size ~gen:char (int_range 0 300)))
     in
     QCheck2.Test.make ~name:"Store.get is total over clobbered entries" ~count:300 ~print
       (gen_mutated entries) (fun bytes ->
         Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
         (* A hit returns the payload the clobbered entry still holds,
            never an invented one. *)
         match Store.get store ~config ~request_key with
         | None -> true
         | Some p -> (
           match Obs.Json.parse bytes with
           | Ok v -> String.equal p (Obs.Json.str_of (Obs.Json.find (Obs.Json.fields v) "payload"))
           | Error _ -> false)));
  ]

(* ------------------------------------------------------------------ *)
(* Property: framing stays total over mutated streams                 *)
(* ------------------------------------------------------------------ *)

(* Up to four frames laid out as [Wire.write_frame] writes them, then
   one to three truncations, single-bit flips or splices with another
   such stream. *)
let gen_stream =
  let open QCheck2.Gen in
  let frame payload =
    let n = String.length payload in
    String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) ^ payload
  in
  let clean =
    map
      (fun payloads -> String.concat "" (List.map frame payloads))
      (list_size (int_range 0 4) (string_size ~gen:char (int_range 0 40)))
  in
  let mutate s =
    let n = String.length s in
    oneof
      [
        map (fun k -> String.sub s 0 k) (int_range 0 n);
        map2
          (fun i bit ->
            if n = 0 then s
            else
              String.mapi
                (fun j c -> if j = i mod n then Char.chr (Char.code c lxor (1 lsl bit)) else c)
                s)
          nat (int_range 0 7);
        map3
          (fun other i j ->
            let m = String.length other in
            String.sub s 0 (i mod (n + 1)) ^ String.sub other (j mod (m + 1)) (m - (j mod (m + 1))))
          clean nat nat;
      ]
  in
  let* s = clean in
  let* rounds = int_range 1 3 in
  let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
  go rounds s

(* What [read_frame ~max_frame] returns, read after read, on [stream]
   followed by EOF: the reference the reads are held to. *)
let reference_reads ~max_frame stream =
  let n = String.length stream in
  let rec go pos acc =
    let left = n - pos in
    if left = 0 then List.rev (Error Wire.Closed :: acc)
    else if left < 4 then List.rev (Error (Wire.Torn left) :: acc)
    else
      let len =
        (Char.code stream.[pos] lsl 24)
        lor (Char.code stream.[pos + 1] lsl 16)
        lor (Char.code stream.[pos + 2] lsl 8)
        lor Char.code stream.[pos + 3]
      in
      if len > max_frame then go (pos + 4) (Error (Wire.Oversized len) :: acc)
      else if left - 4 < len then List.rev (Error (Wire.Torn left) :: acc)
      else go (pos + 4 + len) (Ok (String.sub stream (pos + 4) len) :: acc)
  in
  go 0 []

(* Writes [stream], closes the writer, and reads frames until EOF shows
   ([Closed] or [Torn]), then once more.  A read that blocked after EOF
   would raise on the receive timeout instead of hanging the suite. *)
let wire_reads ~max_frame stream =
  with_pipe @@ fun a b ->
  Unix.setsockopt_float b Unix.SO_RCVTIMEO 5.0;
  ignore (Unix.write_substring a stream 0 (String.length stream));
  Unix.close a;
  let rec go acc =
    match Wire.read_frame ~max_frame b with
    | (Error (Wire.Closed | Wire.Torn _) as r) -> List.rev (r :: acc)
    | (Ok _ | Error (Wire.Oversized _)) as r -> go (r :: acc)
  in
  let reads = go [] in
  (reads, Wire.read_frame ~max_frame b)

let prop_wire_total =
  QCheck2.Test.make ~name:"read_frame is total over mutated streams" ~count:500
    ~print:(fun (max_frame, s) -> Printf.sprintf "max_frame %d, %S" max_frame s)
    QCheck2.Gen.(pair (int_range 0 48) gen_stream)
    (fun (max_frame, stream) ->
      let reads, after = wire_reads ~max_frame stream in
      reads = reference_reads ~max_frame stream && after = Error Wire.Closed)

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
          Alcotest.test_case "reset mid-header is torn" `Quick test_wire_reset_torn;
          Alcotest.test_case "reset after the request is an error" `Quick
            test_client_reset_is_error;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_protocol_rejects_garbage;
          Alcotest.test_case "injected quarantine pinned" `Quick
            test_injected_quarantine_pinned;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "corruption is a miss" `Quick
            test_store_corruption_is_a_miss;
          Alcotest.test_case "failed put leaves no temp file" `Quick
            test_store_failed_put_cleans_up;
          Alcotest.test_case "digest sensitivity" `Quick test_store_digest;
          Alcotest.test_case "config fingerprint pinned" `Quick
            test_config_fingerprint_pinned;
          Alcotest.test_case "request addresses pinned" `Quick test_store_addresses_pinned;
        ] );
      ( "request-key",
        [
          Alcotest.test_case "arch name enters the key" `Quick
            test_request_key_covers_arch;
          Alcotest.test_case "key and fingerprint equal the Printf reference" `Quick
            test_request_key_reference;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "miss then hit, byte-identical" `Quick
            test_serve_miss_then_hit_byte_identical;
          Alcotest.test_case "survives torn/oversized/garbage frames" `Quick
            test_serve_survives_bad_frames;
          Alcotest.test_case "zero-PE frame refused, connection kept" `Quick
            test_serve_zero_arch_frame;
          Alcotest.test_case "extreme node refused, connection kept" `Quick
            test_serve_extreme_node_refused;
          Alcotest.test_case "deep-nested frame refused, connection kept" `Quick
            test_serve_deep_nesting_refused;
          Alcotest.test_case "overflowing coefficient refused, connection kept" `Quick
            test_serve_overflowing_coefficient_refused;
          Alcotest.test_case "config fingerprint invalidates" `Quick
            test_serve_fingerprint_invalidates;
          Alcotest.test_case "corrupted entry re-solves" `Quick
            test_serve_corrupted_entry_re_solves;
          Alcotest.test_case "store write failure still answers" `Quick
            test_serve_store_write_failure;
          Alcotest.test_case "unreadable entry is a miss" `Quick
            test_serve_unreadable_entry;
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
        List.map QCheck_alcotest.to_alcotest
          (prop_decoders_total @ [ prop_wire_total; prop_replay_deterministic ]) );
    ]
