type t = { fd : Unix.file_descr; max_frame : int }

let unix_addr path = Unix.ADDR_UNIX path
let tcp_addr port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let addr_name = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (host, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port

let connect ?(max_frame = Wire.default_max_frame) addr =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  match Unix.connect fd addr with
  | () -> Ok { fd; max_frame }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error
      (Printf.sprintf "client: cannot connect to %s: %s" (addr_name addr)
         (Unix.error_message e))

let receive t =
  match Wire.read_frame ~max_frame:t.max_frame t.fd with
  | Error e -> Error ("client: " ^ Wire.describe e)
  | Ok payload -> Protocol.decode_response payload

let request_raw t payload =
  match Wire.write_frame t.fd payload with
  | () -> receive t
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "client: send failed: %s" (Unix.error_message e))

let request t req = request_raw t (Protocol.encode_request req)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
