type dim = { dim_name : string; extent : int }

type index = { stride : int; iter : string }

type projection = index list

type tensor = {
  tensor_name : string;
  projections : projection list;
  read_write : bool;
}

type t = { name : string; dims : dim list; tensors : tensor list }

let fail fmt = Printf.ksprintf invalid_arg fmt

let check_unique what names =
  let sorted = List.sort String.compare names in
  let rec dup = function
    | a :: b :: _ when String.equal a b -> Some a
    | _ :: rest -> dup rest
    | [] -> None
  in
  match dup sorted with
  | Some d -> fail "Nest.make: duplicate %s %S" what d
  | None -> ()

let make ~name ~dims ~tensors =
  check_unique "dimension" (List.map (fun d -> d.dim_name) dims);
  check_unique "tensor" (List.map (fun t -> t.tensor_name) tensors);
  List.iter
    (fun d ->
      if d.extent < 1 then fail "Nest.make: dimension %S has extent %d" d.dim_name d.extent)
    dims;
  let declared it = List.exists (fun d -> String.equal d.dim_name it) dims in
  List.iter
    (fun t ->
      if t.projections = [] then fail "Nest.make: tensor %S has no projections" t.tensor_name;
      List.iter
        (fun proj ->
          if proj = [] then fail "Nest.make: tensor %S has an empty projection" t.tensor_name;
          List.iter
            (fun { stride; iter } ->
              if stride < 1 then
                fail "Nest.make: tensor %S uses stride %d on %S" t.tensor_name stride iter;
              if not (declared iter) then
                fail "Nest.make: tensor %S references undeclared iterator %S" t.tensor_name iter)
            proj)
        t.projections)
    tensors;
  { name; dims; tensors }

let name n = n.name

let dims n = n.dims

let dim_names n = List.map (fun d -> d.dim_name) n.dims

let extent n it =
  match List.find_opt (fun d -> String.equal d.dim_name it) n.dims with
  | Some d -> d.extent
  | None -> raise Not_found

let tensors n = n.tensors

let tensor n tname =
  match List.find_opt (fun t -> String.equal t.tensor_name tname) n.tensors with
  | Some t -> t
  | None -> raise Not_found

let iters_of_tensor t =
  List.sort_uniq String.compare
    (List.concat_map (List.map (fun i -> i.iter)) t.projections)

let tensor_mentions t it =
  List.exists (List.exists (fun i -> String.equal i.iter it)) t.projections

let ops n =
  List.fold_left (fun acc d -> acc *. float_of_int d.extent) 1.0 n.dims

(* Extent of one projection over the full iteration space:
   sum stride * extent - sum stride + 1. *)
let projection_words n proj =
  let weighted =
    List.fold_left (fun acc { stride; iter } -> acc + (stride * extent n iter)) 0 proj
  in
  let strides = List.fold_left (fun acc { stride; _ } -> acc + stride) 0 proj in
  float_of_int (weighted - strides + 1)

let tensor_words n t =
  List.fold_left (fun acc proj -> acc *. projection_words n proj) 1.0 t.projections

let pp_projection ppf proj =
  List.iteri
    (fun i { stride; iter } ->
      if i > 0 then Format.fprintf ppf "+";
      if stride <> 1 then Format.fprintf ppf "%d*" stride;
      Format.fprintf ppf "%s" iter)
    proj

let pp ppf n =
  Format.fprintf ppf "@[<v>nest %s:@," n.name;
  Format.fprintf ppf "  dims:";
  List.iter (fun d -> Format.fprintf ppf " %s=%d" d.dim_name d.extent) n.dims;
  Format.fprintf ppf "@,";
  List.iter
    (fun t ->
      Format.fprintf ppf "  %s%s[" t.tensor_name (if t.read_write then "(rw)" else "");
      List.iteri
        (fun i proj ->
          if i > 0 then Format.fprintf ppf "][";
          pp_projection ppf proj)
        t.projections;
      Format.fprintf ppf "]@,")
    n.tensors;
  Format.fprintf ppf "@]"
