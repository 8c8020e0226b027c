(** Energy, delay and throughput of a concrete mapping on a concrete
    architecture — the role Timeloop's model plays in the paper.

    The energy expression is Eq. 3 instantiated with the technology models
    of Eq. 4:

    - MAC + per-MAC register traffic: [(4*eps_R + eps_op) * macs];
    - register-file side of SRAM<->register traffic: [eps_R * (...)];
    - SRAM accesses from both the register and the DRAM boundary;
    - DRAM accesses.

    Delay depends on the communication model (DESIGN §16).  [Overlapped]
    (the default, and the paper's Section V-B assumption) takes the
    maximum of per-component delays: compute on the used PEs, aggregate
    SRAM port traffic, aggregate DRAM traffic.  [Comm_aware] instead
    charges each per-level, per-direction link (DRAM read/write, NoC
    read/write, the per-PE register operand stream) with its burst
    overhead — each copy of the schedule quantized to whole bursts — and
    takes the max (uncontended) or serializes the DRAM/NoC channels onto
    one fabric ([contention]).  The timed refsim
    ({!Refsim.Simulate.timed}) re-derives the same channel totals by
    walking the copy schedule, so the two agree bit-for-bit in
    uncontended mode. *)

type breakdown = {
  mac_energy : float;  (** pJ, includes per-MAC register accesses *)
  register_energy : float;  (** pJ for register-side tile traffic *)
  sram_energy : float;
  dram_energy : float;
}

type t = {
  arch : Archspec.Arch.t;
  counts : Counts.t;
  energy_pj : float;
  energy_per_mac : float;
  breakdown : breakdown;
  compute_cycles : float;
  sram_cycles : float;  (** aggregate-model SRAM port cycles (legacy view) *)
  dram_cycles : float;  (** aggregate-model DRAM cycles (legacy view) *)
  comm : Archspec.Link.occupancy list;
      (** per-link occupancies in canonical order (dram-rd, dram-wr,
          noc-rd, noc-wr, reg); empty under [Overlapped] *)
  binding : string;
      (** the resource determining [cycles]: ["compute"], a channel
          name, ["bus"] (contended shared fabric), or under [Overlapped]
          ["sram"]/["dram"]; first-wins on ties in canonical order *)
  cycles : float;
  ipc : float;  (** MACs per cycle; at most the number of PEs used *)
}

val evaluate :
  ?comm:Archspec.Link.comm_model ->
  ?contention:bool ->
  Archspec.Technology.t ->
  Archspec.Arch.t ->
  Workload.Nest.t ->
  Mapspace.Mapping.t ->
  (t, string) result
(** Fails when the mapping is invalid for the nest, does not have the
    canonical reg/pe/spatial/dram level structure
    ({!Mapspace.Level.canonical}), exceeds the architecture's register /
    SRAM / PE capacities, or is degenerate — the MAC count, cycle count
    or energy comes out non-finite or non-positive (overflowed
    trip-count products), which would otherwise yield NaN/inf
    [energy_per_mac]/[ipc] records.  [comm] defaults to [Overlapped]
    (the historical behavior); [contention] only affects [Comm_aware].

    The evaluation runs in stages over a {!Counts.Kernel} compiled from
    the mapping: footprints, then the capacity checks, then fills, then
    energy, delay and the degeneracy check — so a mapping that does not
    fit never has its fills computed. *)

(** {2 Stages for candidate loops}

    A loop scoring many factorizations of one nest compiles a canonical
    {!Counts.Kernel} once, rewrites its factor matrix per candidate and
    calls these on it — the same code {!evaluate} runs, without building
    a mapping or packing counts. *)

val fits : Archspec.Arch.t -> Counts.Kernel.t -> bool
(** After {!Counts.Kernel.footprints}: the register tile, the SRAM tile
    and the PE count all fit, i.e. {!evaluate}'s capacity checks pass. *)

val energy_delay :
  ?comm:Archspec.Link.comm_model ->
  ?contention:bool ->
  Archspec.Technology.t ->
  Archspec.Arch.t ->
  Counts.Kernel.t ->
  (float * float) option
(** After {!Counts.Kernel.fills}: the [energy_pj] and [cycles] that
    {!evaluate} would report, bit for bit, or [None] where it would fail
    the degeneracy check. *)

val energy : t -> float

val ipc : t -> float

val pp : Format.formatter -> t -> unit
(** Under [Overlapped] the output is byte-identical to the
    pre-communication-model report; [Comm_aware] results append the
    per-link occupancy breakdown and the binding resource. *)
