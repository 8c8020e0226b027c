module Nest = Workload.Nest
module Level = Mapspace.Level
module M = Symexpr.Monomial
module P = Symexpr.Posynomial
module FP = Symexpr.Footprint
module AD = Symexpr.Affine_dim

type volume = { prefix : M.t; body : FP.t }

let volume_posynomial v = P.mul_monomial v.prefix (FP.to_posynomial v.body)

let volume_eval_exact env v = M.eval env v.prefix *. FP.eval_exact env v.body

type tensor_volumes = {
  tensor : string;
  read_write : bool;
  register_footprint : FP.t;
  sram_footprint : FP.t;
  sram_to_reg : volume;
  dram_to_sram : volume;
}

type t = {
  nest : Nest.t;
  pe_perm : string list;
  dram_perm : string list;
  per_tensor : tensor_volumes list;
}

let base_var dim = M.var (Level.trip_var ~level:Level.register_level ~dim)

let register_tile_footprint tensor =
  let dim_of_projection proj =
    let terms = List.map (fun { Nest.stride; iter } -> (stride, base_var iter)) proj in
    let strides = List.fold_left (fun a { Nest.stride; _ } -> a + stride) 0 proj in
    AD.make terms (1 - strides)
  in
  FP.make (List.map dim_of_projection tensor.Nest.projections)

(* [replace c -> c_level * c] for one dim: every extent monomial of the
   dim is a product of that dim's per-level trip variables, so extending
   through the always-present level-0 variable extends the whole extent. *)
let extend_dim ~level dim fp =
  let t0 = Level.trip_var ~level:Level.register_level ~dim in
  let tl = Level.trip_var ~level ~dim in
  FP.subst t0 (M.mul (M.var t0) (M.var tl)) fp

let construct ~level ~perm ~tensor df_lower =
  let present dim = Nest.tensor_mentions tensor dim in
  let step (df, dv_body, dv_prefix, can_hoist) it =
    let trip = M.var (Level.trip_var ~level ~dim:it) in
    if can_hoist then
      if present it then
        (* Innermost present iterator: fold the sliding-window union into
           both footprint and volume; hoisting stops here. *)
        (extend_dim ~level it df, extend_dim ~level it dv_body, dv_prefix, false)
      else (df, dv_body, dv_prefix, true)
    else if present it then
      (extend_dim ~level it df, dv_body, M.mul dv_prefix trip, false)
    else (df, dv_body, M.mul dv_prefix trip, false)
  in
  let df, body, prefix, _ =
    List.fold_left step (df_lower, df_lower, M.one, true) (List.rev perm)
  in
  (df, { prefix; body })

let check_perm nest what perm =
  let dims = Nest.dim_names nest in
  let rec distinct = function
    | [] -> true
    | d :: rest -> (not (List.mem d rest)) && distinct rest
  in
  if not (distinct perm) then
    invalid_arg (Printf.sprintf "Volume.analyze: duplicate dim in %s" what);
  List.iter
    (fun d ->
      if not (List.mem d dims) then
        invalid_arg (Printf.sprintf "Volume.analyze: %s mentions undeclared dim %S" what d))
    perm

(* ------------------------------------------------------------------ *)
(* Level structures                                                   *)
(* ------------------------------------------------------------------ *)

type level_spec = Temporal of string list | Spatial

type boundary = { level : int; footprint : FP.t; fill : volume }

(* Trip counts of every level outer than [level] multiply its fill
   volume; spatial levels only through dims present in the tensor.  Only
   the kinds of those levels enter, never their permutations. *)
let outer_multiplier nest specs tensor ~level =
  let all_dims = Nest.dim_names nest in
  let vars = ref [] in
  for l = level + 1 to Array.length specs - 1 do
    let dims =
      match specs.(l) with
      | Temporal _ -> all_dims
      | Spatial -> List.filter (Nest.tensor_mentions tensor) all_dims
    in
    List.iter (fun dim -> vars := (Level.trip_var ~level:l ~dim, 1.0) :: !vars) dims
  done;
  M.make 1.0 !vars

(* Algorithm 1 over levels [first..last] of [specs] for one tensor,
   from the footprint of the tile below level [first]: the boundaries of
   the temporal levels, innermost first, and the footprint of the tile
   through level [last].  A level sees only its own permutation and the
   footprint handed up from below. *)
let walk nest specs tensor ~first ~last below =
  let all_dims = Nest.dim_names nest in
  let df = ref below in
  let boundaries = ref [] in
  for l = first to last do
    match specs.(l) with
    | Spatial ->
      df := List.fold_left (fun fp dim -> extend_dim ~level:l dim fp) !df all_dims
    | Temporal perm ->
      let footprint = !df in
      let df_l, fill0 = construct ~level:l ~perm ~tensor footprint in
      df := df_l;
      let fill =
        { fill0 with prefix = M.mul fill0.prefix (outer_multiplier nest specs tensor ~level:l) }
      in
      boundaries := { level = l; footprint; fill } :: !boundaries
  done;
  (List.rev !boundaries, !df)

type general = {
  g_nest : Nest.t;
  g_levels : level_spec list;
  g_tensors : (string * bool * boundary list) list;
}

let analyze_general nest ~levels =
  (match levels with
  | Temporal _ :: _ -> ()
  | Spatial :: _ | [] ->
    invalid_arg "Volume.analyze_general: level 0 must be temporal");
  List.iteri
    (fun i spec ->
      match spec with
      | Temporal perm -> check_perm nest (Printf.sprintf "level %d" i) perm
      | Spatial -> ())
    levels;
  let specs = Array.of_list levels in
  let analyze_tensor tensor =
    let boundaries, _ =
      walk nest specs tensor ~first:1 ~last:(Array.length specs - 1)
        (register_tile_footprint tensor)
    in
    (tensor.Nest.tensor_name, tensor.Nest.read_write, boundaries)
  in
  { g_nest = nest; g_levels = levels; g_tensors = List.map analyze_tensor (Nest.tensors nest) }

(* ------------------------------------------------------------------ *)
(* The canonical hierarchy, in two halves                             *)
(* ------------------------------------------------------------------ *)

type half = { perm : string list; boundaries : boundary list; above : FP.t list }

(* Boundary 1 is the register file (filled from SRAM), boundary 3 the
   SRAM buffer (filled from DRAM).  A half walks only its own levels and
   the levels above it enter by kind alone, so the other half's
   permutation is left empty. *)
let canonical ~pe_perm ~dram_perm =
  [| Temporal []; Temporal pe_perm; Spatial; Temporal dram_perm |]

let half nest specs ~first ~last perm below =
  let walked =
    List.map2
      (fun tensor footprint -> walk nest specs tensor ~first ~last footprint)
      (Nest.tensors nest) below
  in
  {
    perm;
    boundaries =
      List.map (function [ b ], _ -> b | _ -> assert false) walked;
    above = List.map snd walked;
  }

let inner_half nest ~pe_perm =
  check_perm nest "level 1" pe_perm;
  half nest (canonical ~pe_perm ~dram_perm:[]) ~first:1 ~last:2 pe_perm
    (List.map register_tile_footprint (Nest.tensors nest))

let outer_half nest ~sram_footprints ~dram_perm =
  check_perm nest "level 3" dram_perm;
  half nest (canonical ~pe_perm:[] ~dram_perm) ~first:3 ~last:3 dram_perm sram_footprints

let compose nest ~inner ~outer =
  let per_tensor =
    List.map2
      (fun (tensor, reg) sram ->
        {
          tensor = tensor.Nest.tensor_name;
          read_write = tensor.Nest.read_write;
          register_footprint = reg.footprint;
          sram_footprint = sram.footprint;
          sram_to_reg = reg.fill;
          dram_to_sram = sram.fill;
        })
      (List.combine (Nest.tensors nest) inner.boundaries)
      outer.boundaries
  in
  { nest; pe_perm = inner.perm; dram_perm = outer.perm; per_tensor }

let analyze nest ~pe_perm ~dram_perm =
  let inner = inner_half nest ~pe_perm in
  compose nest ~inner ~outer:(outer_half nest ~sram_footprints:inner.above ~dram_perm)
