module Nest = Workload.Nest
module Tech = Archspec.Technology
module Arch = Archspec.Arch
module Level = Mapspace.Level
module M = Symexpr.Monomial
module P = Symexpr.Posynomial
module U = Analysis.Units
module D = Analysis.Dimexpr

type objective = Energy | Delay | Edp

type arch_mode = Fixed of Arch.t | Codesign of { area_budget : float }

type instance = {
  problem : Gp.Problem.t;
  nest : Nest.t;
  choice : Permutations.choice;
  analysis : Volume.t;
  objective : objective;
  arch_mode : arch_mode;
  comm : Archspec.Link.comm_model;
  tileable : string list;
  pinned : (string * float) list;
  provenance : string;
  unit_diagnostics : Analysis.Diagnostic.t list;
}

let var_arch_regs = "arch.regs"

let var_arch_sram = "arch.sram"

let var_arch_pes = "arch.pes"

let var_delay = "delay.T"

(* Per-access energies (Eq. 4) are pJ per word moved. *)
let unit_access_energy = U.div U.pj U.elements

let objective_name = function Energy -> "energy" | Delay -> "delay" | Edp -> "edp"

let objective_unit = function
  | Energy -> U.pj
  | Delay -> U.cycles
  | Edp -> U.mul U.pj U.cycles

let provenance_of objective nest (choice : Permutations.choice) pinned =
  let spatial =
    List.filter_map
      (fun (v, value) ->
        match Level.parse_trip_var v with
        | Some (l, d) when l = Level.spatial_level && value > 1.0 ->
          Some (Printf.sprintf "%s=%g" d value)
        | _ -> None)
      pinned
  in
  Printf.sprintf "%s %s pe=[%s] dram=[%s]%s" (Nest.name nest)
    (objective_name objective)
    (String.concat "," choice.Permutations.pe_perm)
    (String.concat "," choice.Permutations.dram_perm)
    (match spatial with
    | [] -> ""
    | l -> " spatial{" ^ String.concat "," l ^ "}")

let bind_pinned pinned p =
  List.fold_left (fun acc (x, v) -> P.bind x v acc) p pinned

let lower_pair ~comm ~pinned ~provenance tech arch_mode objective
    (plan : Permutations.plan) (choice, analysis) =
  let nest = plan.Permutations.nest in
  let tileable = plan.Permutations.tileable in
  let ctx = D.ctx ~provenance () in
  let bind = bind_pinned pinned in
  let macs = Nest.ops nest in
  (* Data volumes and buffer footprints, summed over tensors; both count
     16-bit data words, so they carry the [elem] unit. *)
  let volume_sum what select =
    D.sum ctx ~what U.elements
      (List.filter_map
         (fun tv ->
           Option.map
             (fun v ->
               D.of_posynomial U.elements (bind (Volume.volume_posynomial v)))
             (select tv))
         analysis.Volume.per_tensor)
  in
  let sram_to_reg = volume_sum "sram-to-reg volume" (fun tv -> Some tv.Volume.sram_to_reg) in
  let reg_to_sram =
    volume_sum "reg-to-sram volume" (fun tv ->
        if tv.Volume.read_write then Some tv.Volume.sram_to_reg else None)
  in
  let dram_to_sram = volume_sum "dram-to-sram volume" (fun tv -> Some tv.Volume.dram_to_sram) in
  let sram_to_dram =
    volume_sum "sram-to-dram volume" (fun tv ->
        if tv.Volume.read_write then Some tv.Volume.dram_to_sram else None)
  in
  let footprint_sum what select =
    D.sum ctx ~what U.elements
      (List.map
         (fun tv ->
           D.of_posynomial U.elements
             (bind (Symexpr.Footprint.to_posynomial (select tv))))
         analysis.Volume.per_tensor)
  in
  let reg_footprint = footprint_sum "register footprint" (fun tv -> tv.Volume.register_footprint) in
  let sram_footprint = footprint_sum "SRAM footprint" (fun tv -> tv.Volume.sram_footprint) in
  let spatial_product =
    (* Over every dim: pinned spatial placements (e.g. a window dim spread
       across PE rows) contribute their constant factor after binding. *)
    let raw =
      List.fold_left
        (fun acc d -> M.mul acc (M.var (Level.trip_var ~level:Level.spatial_level ~dim:d)))
        M.one (Nest.dim_names nest)
    in
    List.fold_left (fun acc (x, v) -> M.bind x v acc) raw pinned
  in
  let spatial = D.mono U.dimensionless spatial_product in
  (* Per-access energies: constants for a fixed architecture, monomials in
     the architectural variables in co-design mode (Eq. 4).  In co-design
     mode the Table III constants sigma_R / sigma_S absorb the extra
     capacity factor, so the products below still come out in pJ/elem. *)
  let eps_r, eps_s =
    match arch_mode with
    | Fixed arch ->
      ( D.mono unit_access_energy (M.const (Arch.register_energy tech arch)),
        D.mono unit_access_energy (M.const (Arch.sram_energy tech arch)) )
    | Codesign _ ->
      ( D.mono unit_access_energy
          (M.scale tech.Tech.sigma_register (M.var var_arch_regs)),
        D.mono unit_access_energy
          (M.scale tech.Tech.sigma_sram (M.var_pow var_arch_sram 0.5)) )
  in
  let register_side = D.add ctx ~what:"register-side traffic" sram_to_reg reg_to_sram in
  let dram_side = D.add ctx ~what:"DRAM-side traffic" dram_to_sram sram_to_dram in
  let sram_side = D.add ctx ~what:"SRAM-side traffic" register_side dram_side in
  (* Capacity / resource constraints shared by both objectives.

     The posynomial footprints over-approximate the exact halo extents
     (the negative constants of [x*Ht + Rt - x] are dropped).  The gap
     [relaxed - exact] is smallest at the all-ones point, so adding that
     minimal gap as slack to a constant capacity keeps the constraint a
     valid over-approximation everywhere while making it exact at the
     boundary — without it, architectures with very small register files
     (which the co-design path legitimately produces) would be spuriously
     infeasible. *)
  let ones_env var =
    match List.assoc_opt var pinned with Some v -> v | None -> 1.0
  in
  let capacity_slack select =
    List.fold_left
      (fun acc tv ->
        let fp = select tv in
        acc
        +. P.eval ones_env (Symexpr.Footprint.to_posynomial fp)
        -. Symexpr.Footprint.eval_exact ones_env fp)
      0.0 analysis.Volume.per_tensor
  in
  let capacity name posy bound_mono = (name, D.le ctx ~name posy bound_mono) in
  let base_constraints =
    match arch_mode with
    | Fixed arch ->
      [
        capacity "reg-capacity" reg_footprint
          (D.mconst U.elements
             (float_of_int arch.Arch.registers_per_pe
             +. capacity_slack (fun tv -> tv.Volume.register_footprint)));
        capacity "sram-capacity" sram_footprint
          (D.mconst U.elements
             (float_of_int arch.Arch.sram_words
             +. capacity_slack (fun tv -> tv.Volume.sram_footprint)));
        capacity "pe-count" (D.of_mono spatial)
          (D.mconst U.dimensionless (float_of_int arch.Arch.pe_count));
      ]
    | Codesign { area_budget } ->
      let area_per_word = U.div U.um2 U.elements in
      let area =
        D.sum ctx ~what:"chip area" U.um2
          [
            D.of_mono
              (D.mmul
                 (D.mconst area_per_word tech.Tech.area_register)
                 (D.mmul (D.mvar U.elements var_arch_regs)
                    (D.mvar U.dimensionless var_arch_pes)));
            D.of_mono
              (D.mscale U.um2 tech.Tech.area_mac
                 (D.mvar U.dimensionless var_arch_pes));
            D.of_mono
              (D.mmul
                 (D.mconst area_per_word tech.Tech.area_sram_word)
                 (D.mvar U.elements var_arch_sram));
          ]
      in
      [
        capacity "reg-capacity" reg_footprint (D.mvar U.elements var_arch_regs);
        capacity "sram-capacity" sram_footprint (D.mvar U.elements var_arch_sram);
        capacity "pe-count" (D.of_mono spatial)
          (D.mvar U.dimensionless var_arch_pes);
        ("area", D.le ctx ~name:"area" area (D.mconst U.um2 area_budget));
      ]
  in
  let lower_bounds =
    let bound (v, u) =
      let name = Printf.sprintf "bound:%s" v in
      (name, D.le ctx ~name (D.of_mono (D.mconst u 1.0)) (D.mvar u v))
    in
    let trip_vars =
      List.concat_map
        (fun d ->
          List.map
            (fun level -> (Level.trip_var ~level ~dim:d, U.dimensionless))
            [ 0; 1; 2; 3 ])
        tileable
    in
    let arch_vars =
      match arch_mode with
      | Fixed _ -> []
      | Codesign _ ->
        [
          (var_arch_regs, U.elements);
          (var_arch_sram, U.elements);
          (var_arch_pes, U.dimensionless);
        ]
    in
    List.map bound (trip_vars @ arch_vars)
  in
  let extent_eqs =
    List.map
      (fun d ->
        let product =
          List.fold_left
            (fun acc level -> M.mul acc (M.var (Level.trip_var ~level ~dim:d)))
            M.one [ 0; 1; 2; 3 ]
        in
        let name = Printf.sprintf "extent:%s" d in
        ( name,
          D.eq ctx ~name
            (D.mono U.dimensionless product)
            (D.mconst U.dimensionless (float_of_int (Nest.extent nest d))) ))
      tileable
  in
  (* The first constant to overflow as the node grows. *)
  let mac_energy = tech.Tech.energy_mac *. macs in
  if not (Float.is_finite mac_energy) then
    invalid_arg
      (Printf.sprintf "MAC energy coefficient %g pJ x %g MACs = %g is out of range"
         tech.Tech.energy_mac macs mac_energy);
  let energy =
    (* Each MAC makes 4 register accesses (two operand reads, an
       accumulator read and write), so [4 * macs] counts words moved. *)
    let mac_term =
      D.add ctx ~what:"MAC energy"
        (D.of_mono (D.mmul eps_r (D.mconst U.elements (4.0 *. macs))))
        (D.of_mono (D.mconst U.pj mac_energy))
    in
    D.sum ctx ~what:"energy" U.pj
      [
        mac_term;
        D.mul_mono eps_r register_side;
        D.mul_mono eps_s sram_side;
        D.scale unit_access_energy tech.Tech.energy_dram dram_side;
      ]
  in
  let delay_constraints () =
    let t = D.mvar U.cycles var_delay in
    let compute_delay =
      (* macs / (PEs used): one MAC per PE per cycle, so the quotient is a
         cycle count. *)
      D.of_mono
        (D.mono U.cycles (M.scale macs (M.pow spatial_product (-1.0))))
    in
    (* Bandwidths are words per cycle; dividing traffic by them yields
       cycles. *)
    let per_word = U.div U.cycles U.elements in
    match comm with
    | Archspec.Link.Overlapped ->
      [
        ("delay-compute", D.le ctx ~name:"delay-compute" compute_delay t);
        ( "delay-sram",
          D.le ctx ~name:"delay-sram"
            (D.scale per_word (1.0 /. tech.Tech.sram_bandwidth) sram_side)
            t );
        ( "delay-dram",
          D.le ctx ~name:"delay-dram"
            (D.scale per_word (1.0 /. tech.Tech.dram_bandwidth) dram_side)
            t );
      ]
    | Archspec.Link.Comm_aware ->
      (* Per-level, per-direction link occupancy bounds (DESIGN §16).
         [cycles_per_word] folds the burst overhead into the coefficient
         — [traffic/bw + (traffic/burst)*ovh] with fractional bursts —
         so each bound stays a posynomial-vs-monomial epigraph
         constraint.  The quantized ([ceil]) burst count is evaluation-
         side only (Accmodel / refsim); fractional bursts lower-bound it,
         keeping the relaxation sound.  Directions with no traffic (a
         nest with no read-write tensor has empty write-back sums) are
         skipped: an empty posynomial is not a DGP constraint. *)
      let links = tech.Tech.links in
      let chan name link traffic =
        if Symexpr.Posynomial.terms (D.posy traffic) = [] then None
        else
          Some
            ( name,
              D.le ctx ~name
                (D.scale per_word (Archspec.Link.cycles_per_word link) traffic)
                t )
      in
      (* The register operand path moves [4 * macs] words spread over the
         used PEs; like compute, it scales with the reciprocal spatial
         product. *)
      let reg_delay =
        D.of_mono
          (D.mono U.cycles
             (M.scale
                (4.0 *. macs
                *. Archspec.Link.cycles_per_word tech.Tech.links.Archspec.Link.reg)
                (M.pow spatial_product (-1.0))))
      in
      ("delay-compute", D.le ctx ~name:"delay-compute" compute_delay t)
      :: ("delay-reg", D.le ctx ~name:"delay-reg" reg_delay t)
      :: List.filter_map
           (fun c -> c)
           [
             chan "delay-dram-rd" links.Archspec.Link.dram dram_to_sram;
             chan "delay-dram-wr" links.Archspec.Link.dram sram_to_dram;
             chan "delay-noc-rd" links.Archspec.Link.noc sram_to_reg;
             chan "delay-noc-wr" links.Archspec.Link.noc reg_to_sram;
           ]
  in
  let lower ~expected d = D.objective ctx ~expected d in
  let problem =
    match objective with
    | Energy ->
      Gp.Problem.make
        ~objective:(lower ~expected:(objective_unit Energy) energy)
        ~ineqs:(base_constraints @ lower_bounds)
        ~eqs:extent_eqs ()
    | Delay ->
      Gp.Problem.make
        ~objective:
          (lower ~expected:(objective_unit Delay)
             (D.of_mono (D.mvar U.cycles var_delay)))
        ~ineqs:(delay_constraints () @ base_constraints @ lower_bounds)
        ~eqs:extent_eqs ()
    | Edp ->
      (* Energy-delay product: posynomial times the epigraph variable is
         still a posynomial, so EDP stays inside DGP. *)
      Gp.Problem.make
        ~objective:
          (lower ~expected:(objective_unit Edp)
             (D.mul_mono (D.mvar U.cycles var_delay) energy))
        ~ineqs:(delay_constraints () @ base_constraints @ lower_bounds)
        ~eqs:extent_eqs ()
  in
  {
    problem;
    nest;
    choice;
    analysis;
    objective;
    arch_mode;
    comm;
    tileable;
    pinned;
    provenance;
    unit_diagnostics = D.diagnostics ctx;
  }

let build ?placement ~comm tech arch_mode objective (plan : Permutations.plan)
    choice_vol =
  let pinned =
    match placement with Some p -> p | None -> plan.Permutations.pinned
  in
  let provenance = provenance_of objective plan.Permutations.nest (fst choice_vol) pinned in
  (* Technology constants are finite once the node is resolved, but at an
     extreme node one times a layer count can still leave the float range
     anywhere in the model: the error names the pair. *)
  try lower_pair ~comm ~pinned ~provenance tech arch_mode objective plan choice_vol
  with Invalid_argument msg -> invalid_arg (provenance ^ ": " ^ msg)

let lint instance =
  instance.unit_diagnostics
  @ Analysis.Discipline.check ~provenance:instance.provenance instance.problem

let solution_env instance solution =
  (* Bound in reverse, solved values first, so that a name's first
     binding wins and a pinned value wins over a solved one. *)
  let table = Hashtbl.create 64 in
  let bind (x, v) = Hashtbl.replace table x v in
  List.iter bind (List.rev solution.Gp.Solver.values);
  List.iter bind (List.rev instance.pinned);
  fun var -> match Hashtbl.find_opt table var with Some v -> v | None -> 1.0

let cumulative instance solution =
  let env = solution_env instance solution in
  fun dim ~level ->
    let rec go l acc =
      if l > level then acc else go (l + 1) (acc *. env (Level.trip_var ~level:l ~dim))
    in
    go 0 1.0
