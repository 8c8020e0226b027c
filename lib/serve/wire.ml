type read_error = Closed | Torn of int | Oversized of int

let describe = function
  | Closed -> "connection closed"
  | Torn n -> Printf.sprintf "torn frame: EOF after %d byte(s)" n
  | Oversized n -> Printf.sprintf "oversized frame: %d bytes announced" n

let default_max_frame = 16 * 1024 * 1024

let write_frame fd payload =
  let n = String.length payload in
  let buf = Bytes.create (4 + n) in
  (* Big-endian, most significant byte first. *)
  Bytes.set_uint8 buf 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 buf 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 buf 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 buf 3 (n land 0xff);
  Bytes.blit_string payload 0 buf 4 n;
  let total = 4 + n in
  let written = ref 0 in
  while !written < total do
    written := !written + Unix.write fd buf !written (total - !written)
  done

(* Reads exactly [len] bytes into [buf] starting at [off]; returns how
   many it got before the stream ended (short only then).  A reset
   connection ends the stream like EOF: the peer is gone either way. *)
let read_exact fd buf off len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    match Unix.read fd buf (off + !got) (len - !got) with
    | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> eof := true
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  !got

let read_frame ?(max_frame = default_max_frame) fd =
  let header = Bytes.create 4 in
  match read_exact fd header 0 4 with
  | 0 -> Error Closed
  | n when n < 4 -> Error (Torn n)
  | _ ->
    let len =
      (Bytes.get_uint8 header 0 lsl 24)
      lor (Bytes.get_uint8 header 1 lsl 16)
      lor (Bytes.get_uint8 header 2 lsl 8)
      lor Bytes.get_uint8 header 3
    in
    if len > max_frame then Error (Oversized len)
    else begin
      let payload = Bytes.create len in
      let got = read_exact fd payload 0 len in
      if got < len then Error (Torn (4 + got))
      else Ok (Bytes.unsafe_to_string payload)
    end
