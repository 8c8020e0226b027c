type t = { index : int; count : int }

let full = { index = 1; count = 1 }

let parse s =
  let s = String.trim s in
  match String.index_opt s '/' with
  | None -> Error (Printf.sprintf "shard: %S is not of the form I/N" s)
  | Some slash ->
    let i_s = String.sub s 0 slash in
    let n_s = String.sub s (slash + 1) (String.length s - slash - 1) in
    (match (int_of_string_opt i_s, int_of_string_opt n_s) with
    | Some i, Some n when n >= 1 && i >= 1 && i <= n -> Ok { index = i; count = n }
    | Some _, Some n when n < 1 ->
      Error (Printf.sprintf "shard: count %d must be >= 1" n)
    | Some i, Some n ->
      Error (Printf.sprintf "shard: index %d is outside 1..%d" i n)
    | _ -> Error (Printf.sprintf "shard: %S is not of the form I/N" s))

let to_string t = Printf.sprintf "%d/%d" t.index t.count

let selects t ~choice = choice mod t.count = t.index - 1

let choice_of ~nplac i = i / Int.max 1 nplac

let placement_of ~nplac i = i mod Int.max 1 nplac

let is_pinned ~nplac i = placement_of ~nplac i = 0

let pair_indices t ~nplac ~npairs =
  let nplac = Int.max 1 nplac in
  let nchoices = npairs / nplac in
  List.concat_map
    (fun c ->
      if selects t ~choice:c then List.init nplac (fun p -> (c * nplac) + p)
      else [])
    (List.init nchoices Fun.id)
