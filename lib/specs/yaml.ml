type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Map of (string * value) list

(* The value this subset reads a scalar's text as; a quoted text is a
   string. *)
let scalar_of_string s =
  let n = String.length s in
  if n >= 2 && (s.[0] = '"' || s.[0] = '\'') && s.[n - 1] = s.[0] then
    String (String.sub s 1 (n - 2))
  else
    match s with
    | "null" | "~" -> Null
    | "true" -> Bool true
    | "false" -> Bool false
    | _ -> begin
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> begin
        match float_of_string_opt s with Some f -> Float f | None -> String s
      end
    end

(* Plain words a YAML 1.1 reader types as a bool, a null, a special
   float, a merge key or a value key, beyond those [scalar_of_string]
   reads.  The one-letter bools y/n of the 1.1 spec stay plain: problem
   dimensions are named n, and common readers (PyYAML) take them as
   strings. *)
let typed_words =
  [ "yes"; "Yes"; "YES"; "no"; "No"; "NO"; "True"; "TRUE"; "False"; "FALSE"; "on"; "On";
    "ON"; "off"; "Off"; "OFF"; "Null"; "NULL"; ".inf"; ".Inf"; ".INF"; "+.inf"; "+.Inf";
    "+.INF"; ".nan"; ".NaN"; ".NAN"; "<<"; "=" ]

(* A YAML 1.1 timestamp starts with a four-digit year and a dash. *)
let looks_dated s =
  String.length s > 4
  && s.[4] = '-'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 0 4)

(* A string may be written plain only if it reads back as itself and
   holds nothing that structures a document: no flow or indicator
   character first, no ':' or '#', no control character, and no
   leading or trailing space. *)
let plain_safe s =
  s <> ""
  && scalar_of_string s = String s
  && (not (List.mem s typed_words))
  && (not (looks_dated s))
  && (not (String.contains "-?:,[]{}#&*!|>'\"%@`" s.[0]))
  && (not (String.contains s ':'))
  && (not (String.contains s '#'))
  && String.for_all (fun c -> c >= ' ' && c <> '\127') s
  && s.[0] <> ' '
  && s.[String.length s - 1] <> ' '

(* A double-quoted scalar: backslash and quote escaped, control
   characters written as escapes. *)
let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when c < ' ' || c = '\127' -> Printf.bprintf b "\\x%02x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let scalar_to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | String s -> if plain_safe s then s else quote s
  | List _ | Map _ -> invalid_arg "Yaml.scalar_to_string: not a scalar"

let is_scalar = function List _ | Map _ -> false | _ -> true

let rec emit_block buf indent v =
  let pad n = String.make n ' ' in
  match v with
  | Map [] -> Buffer.add_string buf (pad indent ^ "{}\n")
  | List [] -> Buffer.add_string buf (pad indent ^ "[]\n")
  | Map entries ->
    List.iter
      (fun (k, v) ->
        if is_scalar v then
          Buffer.add_string buf (Printf.sprintf "%s%s: %s\n" (pad indent) k (scalar_to_string v))
        else begin
          Buffer.add_string buf (Printf.sprintf "%s%s:\n" (pad indent) k);
          emit_block buf (indent + 2) v
        end)
      entries
  | List items ->
    List.iter
      (fun item ->
        match item with
        | Map ((k, v1) :: rest) when is_scalar v1 ->
          (* Timeloop style: first key inline after the dash. *)
          Buffer.add_string buf
            (Printf.sprintf "%s- %s: %s\n" (pad indent) k (scalar_to_string v1));
          if rest <> [] then emit_block buf (indent + 2) (Map rest)
        | _ when is_scalar item ->
          Buffer.add_string buf (Printf.sprintf "%s- %s\n" (pad indent) (scalar_to_string item))
        | _ ->
          Buffer.add_string buf (Printf.sprintf "%s-\n" (pad indent));
          emit_block buf (indent + 2) item)
      items
  | scalar -> Buffer.add_string buf (pad indent ^ scalar_to_string scalar ^ "\n")

let emit v =
  let buf = Buffer.create 256 in
  emit_block buf 0 v;
  Buffer.contents buf
