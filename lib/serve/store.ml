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

(* Whether process [pid] exists: [kill pid 0] fails with [ESRCH] only
   when it does not ([EPERM] means another user's live process). *)
let running pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* A daemon killed between a put's write and its rename leaves its
   [.tmp-PID-SEQ] file behind.  Daemons may share a store, so only the
   temp files of processes that are no longer running are removed. *)
let remove_stale_temps root =
  let digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
  let stale name =
    match String.split_on_char '-' name with
    | [ ".tmp"; pid; seq ] when digits pid && digits seq -> (
      match int_of_string_opt pid with
      | Some pid -> pid > 0 && not (running pid)
      | None -> false)
    | _ -> false
  in
  match Sys.readdir root with
  | names ->
    Array.iter
      (fun name ->
        if stale name then try Sys.remove (Filename.concat root name) with Sys_error _ -> ())
      names
  | exception Sys_error _ -> ()

let open_ root =
  match mkdir_p root with
  | () ->
    if Sys.is_directory root then begin
      remove_stale_temps root;
      Ok { root }
    end
    else Error (Printf.sprintf "store: %s is not a directory" root)
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "store: cannot create %s: %s" root (Unix.error_message e))

let root t = t.root

(* 16 lowercase hex digits, zero-padded: the text of ["%016Lx"]. *)
let digest ~config ~request_key =
  let h = Robust.hash64 (config ^ "\x00" ^ request_key) in
  String.init 16 (fun i ->
      "0123456789abcdef".[Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) land 15])

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

(* An entry that cannot be opened or read in full (a directory at its
   path, a file truncated under us) is a miss. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Some (really_input_string ic (in_channel_length ic))
        with Sys_error _ | End_of_file -> None)

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
