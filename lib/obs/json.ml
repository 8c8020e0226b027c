type writer = Buffer.t -> unit

(* Each maximal run of bytes that need no escape is copied with one
   [add_substring]; only quotes, backslashes and control characters
   stop a run. *)
let str s b =
  Buffer.add_char b '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring b s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring b s !run (String.length s - !run);
  Buffer.add_char b '"'

let int i b = Buffer.add_string b (string_of_int i)

let float v b =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" v)
  else if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.17g" v)
  else str (if Float.is_nan v then "nan" else if v > 0.0 then "inf" else "-inf") b

let field name v b =
  str name b;
  Buffer.add_char b ':';
  v b

let obj fields b =
  Buffer.add_char b '{';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      v b)
    fields;
  Buffer.add_char b '}'

let to_string w =
  let b = Buffer.create 256 in
  w b;
  Buffer.contents b

let hex_digits = "0123456789abcdef"

(* The text [Printf.sprintf "%Lx"] prints: lowercase, no leading zeros,
   ["0"] for a zero pattern.  [x] is never captured, so it stays
   unboxed. *)
let bits v =
  let x = Int64.bits_of_float v in
  let n = ref 1 in
  while !n < 16 && Int64.shift_right_logical x (4 * !n) <> 0L do
    incr n
  done;
  let b = Bytes.create !n in
  for i = 0 to !n - 1 do
    Bytes.unsafe_set b i
      hex_digits.[Int64.to_int (Int64.shift_right_logical x (4 * (!n - 1 - i))) land 15]
  done;
  Bytes.unsafe_to_string b

let of_bits s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some b -> Int64.float_of_bits b
  | None -> failwith (Printf.sprintf "bad float bits %S" s)

(* ------------------------------------------------------------------ *)
(* Parsing — the subset the writers above emit: objects, strings and  *)
(* signed integers.  Floats never appear as JSON numbers              *)
(* in round-tripped payloads (they travel as IEEE-754 bit strings),   *)
(* so the grammar stays integer-only on purpose.                      *)
(* ------------------------------------------------------------------ *)

type value =
  | Obj of (string * value) list
  | Str of string
  | Int of int

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* The parser recurses once per object level, so an untrusted payload
   of nothing but [{"k":] would hold it for seconds per megabyte.  What
   the protocol and the store write nests two levels deep. *)
let max_depth = 64

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = c then incr pos else bad "expected %C at offset %d" c !pos
  in
  (* The bytes between escapes are copied a run at a time. *)
  let string_lit () =
    skip_ws ();
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      let run = !pos in
      while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do
        incr pos
      done;
      Buffer.add_substring b s run (!pos - run);
      if !pos >= n then bad "unterminated string";
      incr pos;
      if s.[!pos - 1] = '"' then Buffer.contents b
      else begin
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
          (* The writer only emits \u for control characters; decode
             the general BMP case as UTF-8 anyway. *)
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
      end
    in
    go ()
  in
  let rec value depth =
    skip_ws ();
    match peek () with
    | '{' ->
      if depth >= max_depth then bad "nesting deeper than %d at offset %d" max_depth !pos;
      incr pos;
      obj (depth + 1) []
    | '"' -> Str (string_lit ())
    | '-' | '0' .. '9' -> number ()
    | c -> bad "unexpected %C at offset %d" c !pos
  and obj depth acc =
    skip_ws ();
    if peek () = '}' then begin
      incr pos;
      Obj (List.rev acc)
    end
    else begin
      let k = string_lit () in
      skip_ws ();
      expect ':';
      let v = value depth in
      skip_ws ();
      match peek () with
      | ',' ->
        incr pos;
        obj depth ((k, v) :: acc)
      | '}' ->
        incr pos;
        Obj (List.rev ((k, v) :: acc))
      | c -> bad "expected ',' or '}' at offset %d, got %C" !pos c
    end
  and number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    while match peek () with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some i -> Int i
    | None -> bad "bad number at offset %d" start
  in
  let v = value 0 in
  skip_ws ();
  if !pos <> n then bad "trailing bytes at offset %d" !pos;
  v

let parse s = match parse_exn s with v -> Ok v | exception Bad m -> Error m

let fields = function Obj f -> f | _ -> failwith "not an object"

let find f k =
  match List.assoc_opt k f with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" k)

let int_of = function Int i -> i | _ -> failwith "expected an integer"
let str_of = function Str s -> s | _ -> failwith "expected a string"
let float_of v = of_bits (str_of v)
