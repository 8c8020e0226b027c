module O = Thistle.Optimize

let c_requests = Obs.Metrics.counter "serve.requests"
let c_hits = Obs.Metrics.counter "serve.cache_hits"
let c_misses = Obs.Metrics.counter "serve.cache_misses"
let c_rejected = Obs.Metrics.counter "serve.rejected"

type where = Unix_sock of string | Tcp of int

type config = {
  where : where;
  store_dir : string option;
  base : O.config;
  max_inflight : int;
  max_frame : int;
}

let default where =
  {
    where;
    store_dir = None;
    base = O.default_config;
    max_inflight = 8;
    max_frame = Wire.default_max_frame;
  }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  addr : Unix.sockaddr;
  store : Store.t option;
  adm : Robust.Admission.t;
  lock : Mutex.t;  (** guards [stopping], [conns], [threads] *)
  mutable stopping : bool;
  mutable next_conn : int;
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable threads : Thread.t list;
  mutable accept_thread : Thread.t option;
  (* Single-flight per store digest: concurrent identical requests wait
     for the leader and then re-read the store, so one request set
     solves each distinct key once. *)
  flight_lock : Mutex.t;
  flight_cond : Condition.t;
  flight : (string, unit) Hashtbl.t;
}

let stopping t =
  Mutex.lock t.lock;
  let s = t.stopping in
  Mutex.unlock t.lock;
  s

(* ------------------------------------------------------------------ *)
(* Request handling                                                   *)
(* ------------------------------------------------------------------ *)

let with_flight t key body =
  Mutex.lock t.flight_lock;
  while Hashtbl.mem t.flight key do
    Condition.wait t.flight_cond t.flight_lock
  done;
  Hashtbl.replace t.flight key ();
  Mutex.unlock t.flight_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.flight_lock;
      Hashtbl.remove t.flight key;
      Condition.broadcast t.flight_cond;
      Mutex.unlock t.flight_lock)
    body

let handle t req =
  Obs.Metrics.incr c_requests;
  match req with
  | Protocol.Metrics ->
    Protocol.Payload
      {
        body = Obs.Metrics.to_json (Obs.Metrics.snapshot ()) ^ "\n";
        cached = false;
      }
  | _ ->
    Robust.Admission.with_admission t.adm
      ~rejected:(fun () ->
        Obs.Metrics.incr c_rejected;
        Protocol.Refused
          {
            kind = Protocol.Rejected;
            message =
              Printf.sprintf "server at capacity (%d request(s) in flight)"
                (Robust.Admission.limit t.adm);
          })
      (fun () ->
        match Protocol.resolve t.cfg.base req with
        | Error m -> Protocol.Refused { kind = Protocol.Bad_request; message = m }
        | Ok r -> (
          let config_fp = O.config_fingerprint r.Protocol.config in
          let request_key = r.Protocol.key in
          let digest = Store.digest ~config:config_fp ~request_key in
          with_flight t digest @@ fun () ->
          let cached =
            match t.store with
            | None -> None
            | Some store -> Store.get store ~config:config_fp ~request_key
          in
          match cached with
          | Some body ->
            Obs.Metrics.incr c_hits;
            Protocol.Payload { body; cached = true }
          | None -> (
            Obs.Metrics.incr c_misses;
            match
              Robust.guard ~inject:r.Protocol.config.O.inject ~site:"serve"
                ~provenance:(Protocol.describe req)
                (fun () -> Protocol.render r)
            with
            | Error f ->
              Protocol.Refused
                { kind = Protocol.Failed; message = Robust.describe f }
            | Ok (Error m) ->
              Protocol.Refused { kind = Protocol.Failed; message = m }
            | Ok (Ok body) ->
              (* A failed write costs the cache, not the answer. *)
              Option.iter
                (fun store ->
                  try Store.put store ~config:config_fp ~request_key body
                  with (Sys_error _ | Unix.Unix_error _) as e ->
                    Logs.warn (fun m ->
                        m "serve: store write failed, answer not cached: %s"
                          (Printexc.to_string e)))
                t.store;
              Protocol.Payload { body; cached = false })))

(* ------------------------------------------------------------------ *)
(* Connection and accept loops                                        *)
(* ------------------------------------------------------------------ *)

let send fd resp =
  match Wire.write_frame fd (Protocol.encode_response resp) with
  | () -> true
  | exception Unix.Unix_error _ -> false

let conn_loop t id fd =
  let rec loop () =
    match Wire.read_frame ~max_frame:t.cfg.max_frame fd with
    | Error (Wire.Closed | Wire.Torn _) -> ()
    | Error (Wire.Oversized _ as e) ->
      (* The stream cannot be re-synchronized after a bad length
         prefix: answer once and drop the connection. *)
      ignore
        (send fd
           (Protocol.Refused
              { kind = Protocol.Bad_request; message = Wire.describe e }))
    | Ok payload ->
      let resp =
        match Protocol.decode_request payload with
        | Error m -> Protocol.Refused { kind = Protocol.Bad_request; message = m }
        | Ok req -> handle t req
      in
      if send fd resp then loop ()
  in
  (try loop ()
   with e ->
     Logs.warn (fun m ->
         m "serve: connection handler died: %s" (Printexc.to_string e)));
  Mutex.lock t.lock;
  Hashtbl.remove t.conns id;
  Mutex.unlock t.lock;
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec accept_loop t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    if stopping t then () else accept_loop t
  | exception Unix.Unix_error _ ->
    () (* listen socket closed or poisoned during stop *)
  | fd, _ ->
    if stopping t then (try Unix.close fd with Unix.Unix_error _ -> ())
    else begin
      Mutex.lock t.lock;
      let id = t.next_conn in
      t.next_conn <- id + 1;
      Hashtbl.replace t.conns id fd;
      Mutex.unlock t.lock;
      let th = Thread.create (fun () -> conn_loop t id fd) () in
      Mutex.lock t.lock;
      t.threads <- th :: t.threads;
      Mutex.unlock t.lock;
      accept_loop t
    end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let listen_on where =
  match where with
  | Unix_sock path ->
    (* A stale socket file from a killed daemon would fail the bind. *)
    if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (fd, Unix.ADDR_UNIX path)
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    (fd, Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let start cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let store =
    match cfg.store_dir with
    | None -> Ok None
    | Some dir -> Result.map Option.some (Store.open_ dir)
  in
  match store with
  | Error m -> Error m
  | Ok store -> (
    let fd, addr = listen_on cfg.where in
    match
      Unix.bind fd addr;
      Unix.listen fd 64
    with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "serve: cannot listen: %s" (Unix.error_message e))
    | () ->
      let t =
        {
          cfg;
          listen_fd = fd;
          addr = Unix.getsockname fd;
          store;
          adm = Robust.Admission.create cfg.max_inflight;
          lock = Mutex.create ();
          stopping = false;
          next_conn = 0;
          conns = Hashtbl.create 16;
          threads = [];
          accept_thread = None;
          flight_lock = Mutex.create ();
          flight_cond = Condition.create ();
          flight = Hashtbl.create 16;
        }
      in
      Obs.Metrics.enable ();
      t.accept_thread <- Some (Thread.create accept_loop t);
      Ok t)

let address t = t.addr

let wait t =
  match t.accept_thread with None -> () | Some th -> Thread.join th

let stop t =
  Mutex.lock t.lock;
  let already = t.stopping in
  t.stopping <- true;
  Mutex.unlock t.lock;
  if not already then begin
    (* Wake the acceptor: [close] alone does not reliably unblock a
       thread parked in [accept]. *)
    (try
       let domain = Unix.domain_of_sockaddr t.addr in
       let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
       (try Unix.connect fd t.addr with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    wait t;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.cfg.where with
    | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ());
    (* Shut down live connections under the lock: a handler only closes
       its fd after removing it from [conns] under the same lock, so
       every fd seen here is still valid. *)
    Mutex.lock t.lock;
    Hashtbl.iter
      (fun _ fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.conns;
    let threads = t.threads in
    t.threads <- [];
    Mutex.unlock t.lock;
    List.iter Thread.join threads
  end
