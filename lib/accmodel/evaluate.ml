module Tech = Archspec.Technology
module Arch = Archspec.Arch
module Link = Archspec.Link
module Level = Mapspace.Level
module Mapping = Mapspace.Mapping
module Kernel = Counts.Kernel

type breakdown = {
  mac_energy : float;
  register_energy : float;
  sram_energy : float;
  dram_energy : float;
}

type t = {
  arch : Arch.t;
  counts : Counts.t;
  energy_pj : float;
  energy_per_mac : float;
  breakdown : breakdown;
  compute_cycles : float;
  sram_cycles : float;
  dram_cycles : float;
  comm : Link.occupancy list;
  binding : string;
  cycles : float;
  ipc : float;
}

(* The first capacity the staged footprints exceed, in the order the
   errors report them. *)
type capacity = Fits | Registers of float | Sram of float | Pes of int

let capacity arch k =
  let reg = Kernel.footprint_total k ~level:Level.pe_temporal_level in
  let sram = Kernel.footprint_total k ~level:Level.dram_temporal_level in
  let pes = Kernel.spatial_size k in
  if reg > float_of_int arch.Arch.registers_per_pe then Registers reg
  else if sram > float_of_int arch.Arch.sram_words then Sram sram
  else if pes > arch.Arch.pe_count then Pes pes
  else Fits

let fits arch k =
  match capacity arch k with Fits -> true | Registers _ | Sram _ | Pes _ -> false

let check_capacities arch k =
  match capacity arch k with
  | Fits -> Ok ()
  | Registers reg ->
    Error
      (Printf.sprintf "register tile needs %g words, PE has %d" reg
         arch.Arch.registers_per_pe)
  | Sram sram ->
    Error (Printf.sprintf "SRAM tile needs %g words, SRAM has %d" sram arch.Arch.sram_words)
  | Pes pes ->
    Error (Printf.sprintf "mapping uses %d PEs, architecture has %d" pes arch.Arch.pe_count)

(* Per-level, per-direction link occupancies (DESIGN §16), in the
   canonical channel order: dram-rd, dram-wr, noc-rd, noc-wr, then the
   per-PE register operand stream.  Burst counts quantize each copy of
   the schedule to whole bursts; the register path has no burst
   structure and streams fractionally.  The timed refsim re-derives the
   same totals by literally walking the copy schedule and aggregates
   them through the same {!Link} helpers, so uncontended answers agree
   bit-for-bit. *)
let comm_channels tech k ~macs ~pes_used ~s2r ~r2s ~d2s ~s2d =
  let links = tech.Tech.links in
  let bursts ?rw_only ~level link =
    Kernel.bursts ?rw_only k ~level ~burst_words:link.Link.burst_words
  in
  let dram = Level.dram_temporal_level and noc = Level.pe_temporal_level in
  let shared =
    [
      Link.occupancy "dram-rd" links.Link.dram ~words:d2s
        ~bursts:(bursts ~level:dram links.Link.dram);
      Link.occupancy "dram-wr" links.Link.dram ~words:s2d
        ~bursts:(bursts ~rw_only:true ~level:dram links.Link.dram);
      Link.occupancy "noc-rd" links.Link.noc ~words:s2r
        ~bursts:(bursts ~level:noc links.Link.noc);
      Link.occupancy "noc-wr" links.Link.noc ~words:r2s
        ~bursts:(bursts ~rw_only:true ~level:noc links.Link.noc);
    ]
  in
  let reg =
    Link.stream_occupancy "reg" links.Link.reg
      ~words:(4.0 *. macs /. float_of_int pes_used)
  in
  (shared, reg)

(* Energy (Eq. 3 with the Eq. 4 models), delay under the comm model and
   the degeneracy check, from the kernel's staged fills; [counts] is
   only carried into the record. *)
let assess ~comm ~contention tech arch k counts =
  let eps_r = Arch.register_energy tech arch in
  let eps_s = Arch.sram_energy tech arch in
  let eps_d = tech.Tech.energy_dram in
  let macs = Kernel.macs k in
  let pes_used = Kernel.spatial_size k in
  let s2r = Kernel.fill_total k ~level:Level.pe_temporal_level in
  let r2s = Kernel.fill_total ~rw_only:true k ~level:Level.pe_temporal_level in
  let d2s = Kernel.fill_total k ~level:Level.dram_temporal_level in
  let s2d = Kernel.fill_total ~rw_only:true k ~level:Level.dram_temporal_level in
  let mac_energy = ((4.0 *. eps_r) +. tech.Tech.energy_mac) *. macs in
  let register_energy = eps_r *. (s2r +. r2s) in
  let sram_energy = eps_s *. (s2r +. r2s +. d2s +. s2d) in
  let dram_energy = eps_d *. (d2s +. s2d) in
  let energy_pj = mac_energy +. register_energy +. sram_energy +. dram_energy in
  let compute_cycles = macs /. float_of_int pes_used in
  let sram_cycles = (s2r +. r2s +. d2s +. s2d) /. tech.Tech.sram_bandwidth in
  let dram_cycles = (d2s +. s2d) /. tech.Tech.dram_bandwidth in
  let comm_occs, cycles, binding =
    match comm with
    | Link.Overlapped ->
      let cycles =
        Float.max compute_cycles (Float.max sram_cycles dram_cycles)
      in
      let binding =
        Link.binding
          [
            ("compute", compute_cycles);
            ("sram", sram_cycles);
            ("dram", dram_cycles);
          ]
      in
      ([], cycles, binding)
    | Link.Comm_aware ->
      let shared, reg = comm_channels tech k ~macs ~pes_used ~s2r ~r2s ~d2s ~s2d in
      let cycles, binding =
        Link.comm_cycles ~contention ~compute:compute_cycles ~shared ~reg
      in
      (shared @ [ reg ], cycles, binding)
  in
  (* Degenerate nests (overflowed trip-count products, zero-trip
     mappings) would otherwise produce NaN/inf records through the
     [energy / macs] and [macs / cycles] divisions below. *)
  if not (Float.is_finite macs && macs > 0.0) then
    Error (Printf.sprintf "degenerate nest: MAC count %g is not finite and positive" macs)
  else if not (Float.is_finite cycles && cycles > 0.0) then
    Error (Printf.sprintf "degenerate nest: cycle count %g is not finite and positive" cycles)
  else if not (Float.is_finite energy_pj) then
    Error (Printf.sprintf "degenerate nest: energy %g is not finite" energy_pj)
  else
    Ok
      {
        arch;
        counts;
        energy_pj;
        energy_per_mac = energy_pj /. macs;
        breakdown = { mac_energy; register_energy; sram_energy; dram_energy };
        compute_cycles;
        sram_cycles;
        dram_cycles;
        comm = comm_occs;
        binding;
        cycles;
        ipc = macs /. cycles;
      }

(* Scoring reads only energy and cycles, so it skips packing the counts. *)
let unpacked = { Counts.macs = 0.0; pes_used = 0; per_tensor = [] }

let energy_delay ?(comm = Link.Overlapped) ?(contention = false) tech arch k =
  match assess ~comm ~contention tech arch k unpacked with
  | Ok m -> Some (m.energy_pj, m.cycles)
  | Error _ -> None

let kind_name = function Level.Temporal -> "temporal" | Level.Spatial -> "spatial"

let evaluate ?(comm = Link.Overlapped) ?(contention = false) tech arch nest
    mapping =
  match Mapping.validate nest mapping with
  | Error _ as e -> e
  | Ok () ->
    let kinds = List.map (fun (l : Mapping.level) -> l.Mapping.kind) (Mapping.levels mapping) in
    if kinds <> Level.canonical then
      Error
        (Printf.sprintf
           "mapping has levels [%s]; the model needs the canonical reg/pe/spatial/dram \
            hierarchy [%s]"
           (String.concat "; " (List.map kind_name kinds))
           (String.concat "; " (List.map kind_name Level.canonical)))
    else begin
      let k = Kernel.of_mapping nest mapping in
      Kernel.footprints k;
      match check_capacities arch k with
      | Error _ as e -> e
      | Ok () ->
        Kernel.fills k;
        assess ~comm ~contention tech arch k (Kernel.pack k)
    end

let energy t = t.energy_pj

let ipc t = t.ipc

let pp ppf t =
  Format.fprintf ppf
    "@[<v>energy %.4g pJ (%.3f pJ/MAC): mac %.3g, reg %.3g, sram %.3g, dram %.3g@,\
     cycles %.4g (compute %.4g, sram %.4g, dram %.4g), IPC %.2f, PEs %d"
    t.energy_pj t.energy_per_mac t.breakdown.mac_energy t.breakdown.register_energy
    t.breakdown.sram_energy t.breakdown.dram_energy t.cycles t.compute_cycles
    t.sram_cycles t.dram_cycles t.ipc t.counts.Counts.pes_used;
  (* Communication-aware runs append the per-link breakdown; overlapped
     output stays byte-identical to the pre-communication-model report. *)
  if t.comm <> [] then begin
    Format.fprintf ppf "@,links:";
    List.iter
      (fun (o : Link.occupancy) ->
        Format.fprintf ppf " %s %.4g cyc (%g w, %g bursts)" o.Link.chan
          o.Link.busy o.Link.words o.Link.bursts)
      t.comm;
    Format.fprintf ppf "@,binding: %s" t.binding
  end;
  Format.fprintf ppf "@]"
