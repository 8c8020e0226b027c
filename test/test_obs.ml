(* Tests for the observability layer: span collection and nesting,
   JSONL/JSON well-formedness (checked with a small JSON parser below,
   since the writer is hand-rolled), metric semantics, and domain
   safety. *)

module T = Obs.Trace
module Mx = Obs.Metrics

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser, enough to validate the exporter's output.    *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at %d in %s" msg !pos s)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n') do
      advance ()
    done
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'; advance ()
        | Some '\\' -> Buffer.add_char b '\\'; advance ()
        | Some '/' -> Buffer.add_char b '/'; advance ()
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some 'b' -> Buffer.add_char b '\b'; advance ()
        | Some 'f' -> Buffer.add_char b '\012'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 128 then Buffer.add_char b (Char.chr code)
          else Buffer.add_string b (Printf.sprintf "\\u%04X" code)
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "raw control char in string"
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some 't' -> pos := !pos + 4; Bool true
    | Some 'f' -> pos := !pos + 5; Bool false
    | Some 'n' -> pos := !pos + 4; Null
    | Some _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        advance ()
      done;
      if !pos = start then fail "expected a value";
      Num (float_of_string (String.sub s start (!pos - start)))
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field obj key =
  match obj with
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "missing field %S" key)))
  | _ -> raise (Bad "not an object")

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_passthrough () =
  Alcotest.(check bool) "disabled by default" false (T.enabled ());
  Alcotest.(check int) "span returns the body's value" 42 (T.span "noop" (fun () -> 42));
  Alcotest.(check int) "nothing recorded" 0 (List.length (T.events ()))

let test_nesting_and_attrs () =
  T.start ();
  let v =
    T.span "outer" ~attrs:[ ("layer", "l1") ] (fun () ->
        T.span "inner" (fun () -> 7))
  in
  T.stop ();
  Alcotest.(check int) "value" 7 v;
  match T.events () with
  | [ inner; outer ] ->
    (* Completion order: inner finishes first. *)
    Alcotest.(check string) "inner name" "inner" inner.T.name;
    Alcotest.(check string) "outer name" "outer" outer.T.name;
    Alcotest.(check (option int)) "inner parent" (Some outer.T.id) inner.T.parent;
    Alcotest.(check (option int)) "outer is a root" None outer.T.parent;
    Alcotest.(check (list (pair string string)))
      "attrs" [ ("layer", "l1") ] outer.T.attrs;
    Alcotest.(check bool) "inner within outer" true (inner.T.ts_ns >= outer.T.ts_ns);
    Alcotest.(check bool) "durations nonneg" true
      (inner.T.dur_ns >= 0L && outer.T.dur_ns >= 0L)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_exception_safety () =
  T.start ();
  (try T.span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  let after = T.span "after" (fun () -> ()) in
  T.stop ();
  ignore after;
  match T.events () with
  | [ boom; after ] ->
    Alcotest.(check string) "raising span recorded" "boom" boom.T.name;
    (* The stack unwound: the next span is a root, not a child of the
       raising span. *)
    Alcotest.(check (option int)) "stack unwound" None after.T.parent
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_worker_spans_are_roots () =
  T.start ();
  T.span "submitter" (fun () ->
      let d = Domain.spawn (fun () -> T.span "worker" (fun () -> ())) in
      Domain.join d);
  T.stop ();
  let worker = List.find (fun e -> e.T.name = "worker") (T.events ()) in
  Alcotest.(check (option int)) "parenthood never crosses domains" None worker.T.parent

let test_jsonl_well_formed () =
  T.start ();
  T.span "weird \"name\"\n\t\\" ~attrs:[ ("k\"ey", "v\nal") ] (fun () ->
      T.span "child" (fun () -> ()));
  T.stop ();
  let events = T.events () in
  Alcotest.(check int) "2 events" 2 (List.length events);
  List.iter
    (fun e ->
      let j = parse_json (T.to_jsonl e) in
      (match field j "type" with
      | Str "span" -> ()
      | _ -> Alcotest.fail "type must be \"span\"");
      (match field j "name" with
      | Str n -> Alcotest.(check string) "name round-trips" e.T.name n
      | _ -> Alcotest.fail "name must be a string");
      (match field j "parent" with
      | Null | Num _ -> ()
      | _ -> Alcotest.fail "parent must be null or a number");
      (match (field j "ts_ns", field j "dur_ns", field j "id", field j "domain") with
      | Num _, Num _, Num _, Num _ -> ()
      | _ -> Alcotest.fail "numeric fields");
      match field j "attrs" with
      | Obj kvs ->
        Alcotest.(check (list (pair string string)))
          "attrs round-trip" e.T.attrs
          (List.map (function k, Str v -> (k, v) | _ -> Alcotest.fail "attr value") kvs)
      | _ -> Alcotest.fail "attrs must be an object")
    events

let test_export_file () =
  T.start ();
  T.span "a" (fun () -> ());
  T.span "b" (fun () -> ());
  T.stop ();
  let file = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      T.export oc;
      close_out oc;
      let ic = open_in file in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per span" 2 (List.length lines);
      List.iter (fun line -> ignore (parse_json line)) lines)

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let snapshot_value name =
  match List.assoc_opt name (Mx.snapshot ()) with
  | Some v -> v
  | None -> Alcotest.failf "metric %S not registered" name

let test_counter_semantics () =
  let c = Mx.counter "test.counter" in
  Mx.disable ();
  Mx.incr c;
  Alcotest.(check bool) "disabled is a no-op" true (snapshot_value "test.counter" = Mx.Counter 0);
  Mx.enable ();
  Mx.incr c;
  Mx.add c 9;
  Mx.disable ();
  Alcotest.(check bool) "accumulates" true (snapshot_value "test.counter" = Mx.Counter 10);
  Alcotest.(check bool) "same name, same handle" true
    (Mx.counter "test.counter" == c);
  Mx.reset ();
  Alcotest.(check bool) "reset zeroes" true (snapshot_value "test.counter" = Mx.Counter 0)

let test_gauge_semantics () =
  let g = Mx.gauge "test.gauge" in
  Mx.enable ();
  Alcotest.(check bool) "unset reads 0" true (snapshot_value "test.gauge" = Mx.Gauge 0.0);
  Mx.observe_max g (-5.0);
  Alcotest.(check bool) "first observation wins over unset" true
    (snapshot_value "test.gauge" = Mx.Gauge (-5.0));
  Mx.observe_max g 3.0;
  Mx.observe_max g 1.0;
  Mx.disable ();
  Alcotest.(check bool) "keeps the max" true (snapshot_value "test.gauge" = Mx.Gauge 3.0);
  Mx.reset ()

let test_histogram_semantics () =
  let h = Mx.histogram "test.hist" in
  Mx.enable ();
  Mx.observe h 1.0;
  Mx.observe h 3.0;
  Mx.observe h 1024.0;
  Mx.disable ();
  (match snapshot_value "test.hist" with
  | Mx.Histogram { count; sum; buckets } ->
    Alcotest.(check int) "count" 3 count;
    Alcotest.(check (float 1e-9)) "sum" 1028.0 sum;
    (* log2 buckets: 1.0 -> bound 1, 3.0 -> bound 4, 1024 -> bound 1024. *)
    Alcotest.(check (list (pair (float 0.0) int)))
      "buckets" [ (1.0, 1); (4.0, 1); (1024.0, 1) ] buckets
  | _ -> Alcotest.fail "expected a histogram");
  Mx.reset ()

let test_kind_mismatch_rejected () =
  ignore (Mx.counter "test.kind");
  (try
     ignore (Mx.gauge "test.kind");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  Mx.reset ()

let test_snapshot_sorted_and_counters_subset () =
  ignore (Mx.counter "test.z");
  ignore (Mx.counter "test.a");
  let dump = Mx.snapshot () in
  let names = List.map fst dump in
  Alcotest.(check (list string)) "sorted" (List.sort String.compare names) names;
  List.iter
    (fun (_, n) -> Alcotest.(check int) "counters subset carries ints" 0 n)
    (List.filter
       (fun (name, _) -> name = "test.z" || name = "test.a")
       (Mx.counters dump))

let test_metrics_json_well_formed () =
  Mx.reset ();
  let c = Mx.counter "test.json.counter" in
  let g = Mx.gauge "test.json.gauge" in
  let h = Mx.histogram "test.json.hist" in
  Mx.enable ();
  Mx.add c 5;
  Mx.observe_max g 2.5;
  Mx.observe h 7.0;
  Mx.disable ();
  let j = parse_json (Mx.to_json (Mx.snapshot ())) in
  (match field (field j "counters") "test.json.counter" with
  | Num 5.0 -> ()
  | _ -> Alcotest.fail "counter value");
  (match field (field j "gauges") "test.json.gauge" with
  | Num 2.5 -> ()
  | _ -> Alcotest.fail "gauge value");
  (match field (field j "histograms") "test.json.hist" with
  | Obj _ as hist ->
    (match (field hist "count", field hist "sum") with
    | Num 1.0, Num 7.0 -> ()
    | _ -> Alcotest.fail "histogram count/sum");
    (match field hist "buckets" with
    | Obj [ ("8", Num 1.0) ] -> ()
    | _ -> Alcotest.fail "histogram buckets")
  | _ -> Alcotest.fail "histogram object");
  Mx.reset ()

let test_parallel_updates () =
  Mx.reset ();
  let c = Mx.counter "test.par.counter" in
  let g = Mx.gauge "test.par.gauge" in
  Mx.enable ();
  let worker k () =
    for i = 1 to 1000 do
      Mx.incr c;
      Mx.observe_max g (float_of_int ((k * 1000) + i))
    done
  in
  let domains = List.init 4 (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join domains;
  Mx.disable ();
  Alcotest.(check bool) "no lost counter updates" true
    (snapshot_value "test.par.counter" = Mx.Counter 4000);
  Alcotest.(check bool) "max merge across domains" true
    (snapshot_value "test.par.gauge" = Mx.Gauge 4000.0);
  Mx.reset ()

(* ------------------------------------------------------------------ *)
(* Obs.Json: the writer and parser against their per-byte references *)
(* ------------------------------------------------------------------ *)

module J = Obs.Json

(* The byte-at-a-time [Json.str] that run copying replaced, kept as the
   reference: the output must stay byte-identical. *)
let str_reference s =
  let b = Buffer.create 16 in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The byte-at-a-time string-literal parser that run copying replaced,
   applied to an input that starts with a quote, as [Json.parse] does:
   the literal, then optional white space, then nothing. *)
let parse_string_reference s =
  let n = String.length s in
  let pos = ref 1 in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let b = Buffer.create 16 in
  let rec go () =
    if !pos >= n then bad "unterminated string";
    match s.[!pos] with
    | '"' ->
      incr pos;
      Buffer.contents b
    | '\\' ->
      incr pos;
      if !pos >= n then bad "unterminated escape";
      (match s.[!pos] with
      | '"' -> Buffer.add_char b '"'
      | '\\' -> Buffer.add_char b '\\'
      | '/' -> Buffer.add_char b '/'
      | 'n' -> Buffer.add_char b '\n'
      | 'r' -> Buffer.add_char b '\r'
      | 't' -> Buffer.add_char b '\t'
      | 'b' -> Buffer.add_char b '\b'
      | 'f' -> Buffer.add_char b '\012'
      | 'u' ->
        if !pos + 4 >= n then bad "truncated \\u escape";
        let code =
          match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
          | Some c -> c
          | None -> bad "bad \\u escape"
        in
        pos := !pos + 4;
        if code < 0x80 then Buffer.add_char b (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
      | c -> bad "unknown escape \\%C" c);
      incr pos;
      go ()
    | c ->
      Buffer.add_char b c;
      incr pos;
      go ()
  in
  match go () with
  | exception Bad m -> Error m
  | v ->
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done;
    if !pos <> n then Error (Printf.sprintf "trailing bytes at offset %d" !pos) else Ok (J.Str v)

let json_value = Alcotest.testable (fun ppf _ -> Format.pp_print_string ppf "<json>") ( = )
let parsed = Alcotest.(result json_value string)

(* Bytes that stop a run, weighted up against arbitrary bytes. *)
let gen_json_bytes =
  QCheck2.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (3, char);
             (2, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; '\255'; '/' ]);
           ])
      (int_range 0 48))

let prop_str_reference =
  QCheck2.Test.make ~name:"str equals the per-byte reference" ~count:2000
    ~print:(Printf.sprintf "%S") gen_json_bytes (fun s ->
      J.to_string (J.str s) = str_reference s)

let prop_parse_inverts_str =
  QCheck2.Test.make ~name:"parse inverts str" ~count:2000 ~print:(Printf.sprintf "%S")
    gen_json_bytes (fun s -> J.parse (J.to_string (J.str s)) = Ok (J.Str s))

(* Literal bodies built from escape fragments, well formed or not, so
   every error path of the string parser is reached. *)
let gen_literal =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (int_range 0 8)
         (oneof
            [
              map (String.make 1) char;
              oneofl
                [ "\\"; "\""; "\\\""; "\\\\"; "\\/"; "\\b"; "\\f"; "\\n"; "\\r"; "\\t"; "\\q";
                  "\\u"; "\\u00e9"; "\\u0000"; "\\u20ac"; "\\u12"; "\\uzz"; "\\u_1_2"; " "; "ab" ];
            ])))

let prop_parse_string_reference =
  QCheck2.Test.make ~name:"string literals parse as the per-byte reference" ~count:3000
    ~print:(Printf.sprintf "%S") gen_literal (fun body ->
      let s = "\"" ^ body in
      J.parse s = parse_string_reference s)

let test_json_all_bytes () =
  let all = String.init 256 Char.chr in
  List.iter
    (fun s ->
      Alcotest.(check string) (Printf.sprintf "str %S" s) (str_reference s) (J.to_string (J.str s));
      Alcotest.check parsed (Printf.sprintf "parse %S" s) (Ok (J.Str s))
        (J.parse (J.to_string (J.str s))))
    [ ""; all; "\"x\""; "\\x\\"; "\nx\001"; "x\"y"; "plain"; "\255\000" ]

(* Each escape decodes as before, and each error keeps its message. *)
let test_json_escapes_and_errors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.check parsed (Printf.sprintf "parse %S" input) expected (J.parse input);
      Alcotest.check parsed
        (Printf.sprintf "reference %S" input)
        expected (parse_string_reference input))
    [
      ({|"\/"|}, Ok (J.Str "/"));
      ({|"\b"|}, Ok (J.Str "\b"));
      ({|"\f"|}, Ok (J.Str "\012"));
      ({|"\u00e9"|}, Ok (J.Str "\xc3\xa9"));
      ({|"\u0000"|}, Ok (J.Str "\000"));
      ({|"\u20ac"|}, Ok (J.Str "\xe2\x82\xac"));
      ({|"a\"b\\c\nd"|}, Ok (J.Str "a\"b\\c\nd"));
      ({|"abc|}, Error "unterminated string");
      ({|"ab\|}, Error "unterminated escape");
      ({|"\u12"|}, Error "truncated \\u escape");
      ({|"\uzzzz"|}, Error "bad \\u escape");
      ({|"\q"|}, Error "unknown escape \\'q'");
      ({|"a"x|}, Error "trailing bytes at offset 3");
    ]

(* Objects nest at most 64 deep.  A deeper payload is refused at the
   offset of its 65th brace, so a million-level frame costs no more
   than a 65-level one. *)
let test_json_nesting_bounded () =
  let nested depth ~closed =
    String.init (5 * (depth - 1)) (fun i -> {|{"k":|}.[i mod 5])
    ^ "{}"
    ^ if closed then String.make (depth - 1) '}' else ""
  in
  let rec depth_of = function
    | J.Obj [] -> 1
    | J.Obj [ ("k", v) ] -> 1 + depth_of v
    | _ -> Alcotest.fail "unexpected shape"
  in
  (match J.parse (nested 64 ~closed:true) with
  | Ok v -> Alcotest.(check int) "64 levels parse" 64 (depth_of v)
  | Error m -> Alcotest.failf "64 levels refused: %s" m);
  let refused = Error "nesting deeper than 64 at offset 320" in
  Alcotest.check parsed "65 levels" refused (J.parse (nested 65 ~closed:true));
  Alcotest.check parsed "1,000,000 levels" refused (J.parse (nested 1_000_000 ~closed:false))

let prop_bits_printf =
  QCheck2.Test.make ~name:"bits prints what %Lx prints" ~count:5000
    ~print:(Printf.sprintf "%Lx") QCheck2.Gen.int64 (fun x ->
      let v = Int64.float_of_bits x in
      J.bits v = Printf.sprintf "%Lx" (Int64.bits_of_float v))

let test_bits_edges () =
  List.iter
    (fun v ->
      let expected = Printf.sprintf "%Lx" (Int64.bits_of_float v) in
      Alcotest.(check string) expected expected (J.bits v);
      Alcotest.(check int64) ("round trip " ^ expected) (Int64.bits_of_float v)
        (Int64.bits_of_float (J.float_of (J.Str (J.bits v)))))
    (List.map Int64.float_of_bits
       [ 0L; 1L; 0xfL; 0x10L; 0x8000000000000000L; 0x7ff0000000000000L; 0xfff0000000000000L;
         0x7ff8000000000000L; 0x7ff0000000000001L; 0xfff8000000000001L; 0x000fffffffffffffL;
         0x0010000000000000L; 0x3ff0000000000000L; 0x7fefffffffffffffL; -1L ])

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "disabled passthrough" `Quick test_disabled_is_passthrough;
          Alcotest.test_case "nesting and attrs" `Quick test_nesting_and_attrs;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "worker spans are roots" `Quick test_worker_spans_are_roots;
          Alcotest.test_case "JSONL well-formed" `Quick test_jsonl_well_formed;
          Alcotest.test_case "export to file" `Quick test_export_file;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
          Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch_rejected;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted_and_counters_subset;
          Alcotest.test_case "JSON well-formed" `Quick test_metrics_json_well_formed;
          Alcotest.test_case "parallel updates" `Quick test_parallel_updates;
        ] );
      ( "json",
        [
          Alcotest.test_case "all bytes and end escapes" `Quick test_json_all_bytes;
          Alcotest.test_case "escapes and errors as before" `Quick test_json_escapes_and_errors;
          Alcotest.test_case "bits edge patterns" `Quick test_bits_edges;
          Alcotest.test_case "nesting bounded" `Quick test_json_nesting_bounded;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_str_reference; prop_parse_inverts_str; prop_parse_string_reference; prop_bits_printf ]
      );
    ]
