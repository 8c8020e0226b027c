(** Report rendering shared by the CLI and the serve daemon.

    Byte-identity between a warm daemon answer, a cold daemon answer and
    a cold [thistle optimize]/[codesign]/[pipeline] run (DESIGN §14) is
    by construction: both front ends print exactly these strings, and
    the store persists them verbatim.  Rendering goes through a fresh
    [Format] formatter per call with default margins — the same breaking
    behavior as the CLI's previous [Format.printf] path. *)

val outcome : tech:Archspec.Technology.t -> Thistle.Optimize.report -> string
(** The report block of [thistle optimize]/[codesign]: explored/solved
    counts, solver totals, quarantined and pruned pairs, architecture,
    mapping and model metrics. *)

val area_header : float -> string
(** [thistle codesign]'s "area budget" line. *)

val pipeline :
  config:Thistle.Optimize.config ->
  Archspec.Technology.t ->
  area_budget:float ->
  Thistle.Formulate.objective ->
  Workload.Nest.t list ->
  string
(** The whole [thistle pipeline] run: per-layer co-design under
    [area_budget] on the shared pool, dominant-arch selection, and the
    layer-wise vs shared-arch comparison table (re-optimizing each layer
    for the dominant architecture).  Runs solves — this is the pipeline
    driver, shared so both front ends emit identical bytes. *)
