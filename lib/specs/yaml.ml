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

(* A string may be written plain only if it reads back as itself and
   holds nothing that structures a document. *)
let plain_safe s =
  s <> ""
  && scalar_of_string s = String s
  && (not (String.contains s ':'))
  && (not (String.contains s '#'))
  && s.[0] <> '-' && s.[0] <> ' '
  && s.[String.length s - 1] <> ' '

let scalar_to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | String s -> if plain_safe s then s else "\"" ^ s ^ "\""
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
