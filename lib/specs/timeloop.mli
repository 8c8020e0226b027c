(** Timeloop-style specification documents (Fig. 3): problem, mapping and
    architecture, emitted from this project's types.  This mirrors how
    Thistle drives the external Timeloop model in the paper's toolchain:
    the documents are written for Timeloop to read, never read back.

    Conventions: factors are written [dim=count]; permutations are written
    innermost-first (Timeloop's convention), while {!Mapspace.Mapping}
    stores them outer-to-inner. *)

val problem_to_yaml : Workload.Nest.t -> Yaml.value

val mapping_to_yaml : Mapspace.Mapping.t -> Yaml.value
(** Canonical 4-level mappings only: emits one directive per level with
    targets [DRAM] (temporal), [SRAM] (spatial), [SRAM] (temporal) and
    [RegisterFile] (temporal). *)

val architecture_to_yaml :
  node_nm:float -> Archspec.Technology.t -> Archspec.Arch.t -> Yaml.value
(** The Fig. 3(a) tree: DRAM, then a chip with shared SRAM and [P]
    replicated PEs, each with a register file and a MAC unit.  The
    [technology] attribute is [node_nm] in nm (["45nm"] for Table III);
    the bandwidths are [tech]'s. *)

val write_bundle :
  dir:string ->
  node_nm:float ->
  Archspec.Technology.t ->
  Archspec.Arch.t ->
  Workload.Nest.t ->
  Mapspace.Mapping.t ->
  unit
(** Write [problem.yaml], [mapping.yaml] and [arch.yaml] under the
    existing directory [dir]. *)
