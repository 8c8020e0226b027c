module J = Obs.Json

type t = { root : string }

let entry_version = 1

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let open_ root =
  match mkdir_p root with
  | () ->
    if Sys.is_directory root then Ok { root }
    else Error (Printf.sprintf "store: %s is not a directory" root)
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "store: cannot create %s: %s" root (Unix.error_message e))

let root t = t.root

let digest ~config ~request_key =
  Sweep.Journal.fingerprint ~config ~problem_key:request_key

let entry_path t ~config ~request_key =
  let d = digest ~config ~request_key in
  Filename.concat (Filename.concat t.root (String.sub d 0 2)) (d ^ ".json")

let encode ~config ~request_key payload =
  let b = Buffer.create (String.length payload + 256) in
  J.(
    obj
      [
        field "v" (int entry_version);
        field "config" (str config);
        field "request_key" (str request_key);
        field "payload" (str payload);
      ])
    b;
  Buffer.add_char b '\n';
  Buffer.contents b

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        Some (really_input_string ic n))

let get t ~config ~request_key =
  match read_file (entry_path t ~config ~request_key) with
  | None -> None
  | Some raw -> (
    match J.parse (String.trim raw) with
    | Error _ -> None (* torn or corrupted entry: a miss, not a crash *)
    | Ok v -> (
      try
        let f = J.fields v in
        if
          J.int_of (J.find f "v") = entry_version
          && String.equal (J.str_of (J.find f "config")) config
          && String.equal (J.str_of (J.find f "request_key")) request_key
        then Some (J.str_of (J.find f "payload"))
        else None
      with Failure _ -> None))

(* Distinct temp names per writer: concurrent puts (even of different
   keys) must never share a temp file. *)
let tmp_seq = Atomic.make 0

let put t ~config ~request_key payload =
  let path = entry_path t ~config ~request_key in
  mkdir_p (Filename.dirname path);
  let tmp =
    Filename.concat t.root
      (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add tmp_seq 1))
  in
  let oc = open_out_bin tmp in
  match
    output_string oc (encode ~config ~request_key payload);
    close_out oc;
    (* rename within one directory tree: atomic on POSIX, so readers see
       either the old entry (or nothing) or the complete new one. *)
    Unix.rename tmp path
  with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
