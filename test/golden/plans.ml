(* The enumeration plans of every zoo layer.

   For each layer of the four zoo pipelines at [max_choices] 512 (the
   optimizer's default) and 2 (the serve-mix benchmark's cap), prints
   the tileable dims, the raw permutation-pair count and the window-dim
   placements, then every kept choice in order: its two permutations
   and the MD5 of its symbolic analysis printed exactly — per tensor,
   the register and SRAM footprints and both fill volumes, with every
   coefficient and exponent as a hex float.  A change to the pruning,
   to the order of the choices or to a single bit of a volume shows up
   here before it reaches any solve.

   Usage: plans.exe *)

module Perm = Thistle.Permutations
module V = Thistle.Volume
module M = Symexpr.Monomial
module AD = Symexpr.Affine_dim
module FP = Symexpr.Footprint

let monomial b m =
  Printf.bprintf b "%h" (M.coeff m);
  List.iter (fun (x, a) -> Printf.bprintf b "*%s^%h" x a) (M.exponents m)

let footprint b fp =
  List.iter
    (fun d ->
      Buffer.add_char b '[';
      List.iter
        (fun (stride, m) ->
          Printf.bprintf b "%d*" stride;
          monomial b m;
          Buffer.add_char b '+')
        (AD.terms d);
      Printf.bprintf b "%d]" (AD.constant d))
    (FP.dims fp)

let volume b (v : V.volume) =
  monomial b v.V.prefix;
  Buffer.add_string b " x ";
  footprint b v.V.body

let analysis_digest (t : V.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (tv : V.tensor_volumes) ->
      Printf.bprintf b "%s rw=%b\n reg " tv.V.tensor tv.V.read_write;
      footprint b tv.V.register_footprint;
      Buffer.add_string b "\n sram ";
      footprint b tv.V.sram_footprint;
      Buffer.add_string b "\n s2r ";
      volume b tv.V.sram_to_reg;
      Buffer.add_string b "\n d2s ";
      volume b tv.V.dram_to_sram;
      Buffer.add_char b '\n')
    t.V.per_tensor;
  Digest.to_hex (Digest.string (Buffer.contents b))

let print_plan name max_choices =
  let plan = Perm.enumerate ~max_choices (Workload.Conv.to_nest (Workload.Zoo.find name)) in
  Printf.printf "%s max_choices=%d tileable=%s raw=%d kept=%d\n" name max_choices
    (String.concat "," plan.Perm.tileable)
    plan.Perm.raw_count
    (List.length plan.Perm.choices);
  List.iteri
    (fun i placement ->
      Printf.printf "  placement %d: %s\n" i
        (String.concat " "
           (List.map (fun (var, v) -> Printf.sprintf "%s=%.17g" var v) placement)))
    plan.Perm.placements;
  List.iteri
    (fun i ((c : Perm.choice), vol) ->
      Printf.printf "  choice %d: pe=%s dram=%s analysis=%s\n" i
        (String.concat "," c.Perm.pe_perm)
        (String.concat "," c.Perm.dram_perm)
        (analysis_digest vol))
    plan.Perm.choices

let () =
  List.iter
    (fun (_, layers) ->
      List.iter
        (fun layer ->
          let name = layer.Workload.Conv.layer_name in
          List.iter (print_plan name) [ 512; 2 ])
        layers)
    Workload.Zoo.pipelines
