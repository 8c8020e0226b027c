type failure = {
  site : string;
  provenance : string;
  exn : string;
  backtrace : string;
  elapsed_ns : float;
}

let now_ns () = Unix.gettimeofday () *. 1e9

let describe f = Printf.sprintf "%s failed: %s [%s]" f.site f.exn f.provenance

let pp_summary ppf failures =
  Format.fprintf ppf "%-11s %9s  %-40s %s@." "site" "ms" "exception" "provenance";
  List.iter
    (fun f ->
      let exn =
        if String.length f.exn <= 40 then f.exn else String.sub f.exn 0 37 ^ "..."
      in
      Format.fprintf ppf "%-11s %9.1f  %-40s %s@." f.site (f.elapsed_ns /. 1e6) exn
        f.provenance)
    failures

(* FNV-1a, 64-bit, then murmur3's 64-bit finalizer.  FNV-1a alone
   diffuses a trailing-byte change through one multiply only, leaving
   the draws of keys that differ in their last byte about 1e-7 apart.
   The finalizer spreads any single-bit change across the whole word.
   The index loop keeps the accumulator unboxed: a closure capturing it
   would box an [Int64] per byte. *)
let hash64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) 0x100000001b3L
  done;
  let h = Int64.logxor !h (Int64.shift_right_logical !h 33) in
  let h = Int64.mul h 0xff51afd7ed558ccdL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

exception Injected_fault of string

module Inject = struct
  type rule = { site : string; filter : string option; prob : float }

  type t = { seed : int; rules : rule list }

  let none = { seed = 0; rules = [] }

  (* Uniform draw in [0, 1) from the top 53 bits of the mixed hash. *)
  let unit_draw key =
    Int64.to_float (Int64.shift_right_logical (hash64 key) 11)
    /. 9007199254740992.0

  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    if n = 0 then true
    else begin
      let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
      at 0
    end

  let crash t ~site ~provenance ~attempt =
    match
      List.fold_left
        (fun acc r ->
          if
            r.site = site
            && (match r.filter with None -> true | Some f -> contains ~sub:f provenance)
          then Float.max acc r.prob
          else acc)
        0.0 t.rules
    with
    | p when p <= 0.0 -> false
    | prob ->
      let key = Printf.sprintf "%d|crash|%s|%s|%d" t.seed site provenance attempt in
      unit_draw key < prob

  (* Every guarded site. *)
  let sites = [ "solve"; "integerize"; "layer"; "serve" ]

  let parse_clause clause =
    let clause = String.trim clause in
    match String.index_opt clause '=' with
    | None -> Error (Printf.sprintf "inject: clause %S has no '='" clause)
    | Some eq ->
      let lhs = String.sub clause 0 eq in
      let rhs = String.sub clause (eq + 1) (String.length clause - eq - 1) in
      if lhs = "seed" then
        match int_of_string_opt rhs with
        | Some s -> Ok (`Seed s)
        | None -> Error (Printf.sprintf "inject: seed %S is not an integer" rhs)
      else begin
        match String.index_opt lhs '@' with
        | None ->
          Error
            (Printf.sprintf "inject: clause %S is neither seed=N nor crash@SITE=PROB"
               clause)
        | Some at ->
          let kind = String.sub lhs 0 at in
          let site_s = String.sub lhs (at + 1) (String.length lhs - at - 1) in
          let site, filter =
            match (String.index_opt site_s '[', String.rindex_opt site_s ']') with
            | Some l, Some r when r = String.length site_s - 1 && l < r ->
              (String.sub site_s 0 l, Some (String.sub site_s (l + 1) (r - l - 1)))
            | _ -> (site_s, None)
          in
          if kind <> "crash" then Error (Printf.sprintf "inject: unknown fault kind %S" kind)
          else
            match float_of_string_opt rhs with
            | None -> Error (Printf.sprintf "inject: probability %S is not a float" rhs)
            | Some p when not (Float.is_finite p) || p < 0.0 || p > 1.0 ->
              Error (Printf.sprintf "inject: probability %s is outside [0, 1]" rhs)
            | Some prob ->
              if site = "" then Error (Printf.sprintf "inject: clause %S has no site" clause)
              else if not (List.mem site sites) then
                Error
                  (Printf.sprintf "inject: clause %S never fires (crash sites: %s)" clause
                     (String.concat ", " sites))
              else Ok (`Rule { site; filter; prob })
      end

  let parse spec =
    let clauses =
      List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' spec)
    in
    if clauses = [] then Error "inject: empty spec"
    else
      List.fold_left
        (fun acc clause ->
          match (acc, parse_clause clause) with
          | (Error _ as e), _ -> e
          | _, (Error _ as e) -> e
          | Ok t, Ok (`Seed s) -> Ok { t with seed = s }
          | Ok t, Ok (`Rule r) -> Ok { t with rules = t.rules @ [ r ] })
        (Ok none) clauses

  let to_string t =
    String.concat ","
      (("seed=" ^ string_of_int t.seed)
      :: List.map
           (fun r ->
             Printf.sprintf "crash@%s%s=%g" r.site
               (match r.filter with None -> "" | Some f -> "[" ^ f ^ "]")
               r.prob)
           t.rules)
end

let guard ?(inject = Inject.none) ?(attempt = 0) ~site ~provenance body =
  let start = now_ns () in
  match
    if Inject.crash inject ~site ~provenance ~attempt then
      raise (Injected_fault (Printf.sprintf "injected crash at %s [%s]" site provenance));
    body ()
  with
  | v -> Ok v
  | exception e ->
    let backtrace = Printexc.get_backtrace () in
    let elapsed_ns = now_ns () -. start in
    Error { site; provenance; exn = Printexc.to_string e; backtrace; elapsed_ns }

(* ------------------------------------------------------------------ *)
(* Admission control                                                  *)
(* ------------------------------------------------------------------ *)

module Admission = struct
  type t = { lock : Mutex.t; limit : int; mutable inflight : int }

  let create limit =
    if limit < 0 then invalid_arg "Robust.Admission.create: negative limit";
    { lock = Mutex.create (); limit; inflight = 0 }

  let limit t = t.limit

  let try_admit t =
    Mutex.lock t.lock;
    let admitted = t.inflight < t.limit in
    if admitted then t.inflight <- t.inflight + 1;
    Mutex.unlock t.lock;
    admitted

  let release t =
    Mutex.lock t.lock;
    if t.inflight <= 0 then begin
      Mutex.unlock t.lock;
      invalid_arg "Robust.Admission.release: nothing admitted"
    end
    else begin
      t.inflight <- t.inflight - 1;
      Mutex.unlock t.lock
    end

  let with_admission t ~rejected body =
    if not (try_admit t) then rejected ()
    else Fun.protect ~finally:(fun () -> release t) body
end
