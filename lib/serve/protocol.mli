(** The serve wire protocol: request/response payloads and their JSON
    codec (DESIGN §14).

    Payloads are the {!Obs.Json} subset — objects, strings, signed
    integers — with floats travelling as IEEE-754 bit patterns in hex
    strings ({!Obs.Json.bits}), so every request re-encodes
    to the same bytes and cache keys derived from decoded requests are
    exact.  Every payload carries a ["v"] field; a version mismatch is a
    decode error, never a guess. *)

val version : int

type opts = {
  top_choices : int;
  max_choices : int;
  node_nm : float;  (** process node; Table III scaled first-order *)
}
(** The per-request subset of {!Thistle.Optimize.config} the protocol
    exposes.  Everything else (kernel, warm starts, presolve, crash
    injection) is fixed server-side by the daemon's base config and
    versioned by its {!Thistle.Optimize.config_fingerprint}. *)

val default_opts : opts

type request =
  | Optimize of {
      layer : string;
      objective : Thistle.Formulate.objective;
      arch : Archspec.Arch.t;
      opts : opts;
    }
  | Codesign of {
      layer : string;
      objective : Thistle.Formulate.objective;
      area : float option;  (** [None] means the Eyeriss area *)
      opts : opts;
    }
  | Pipeline of {
      pipeline : string;
      objective : Thistle.Formulate.objective;
      opts : opts;
    }
  | Metrics  (** daemon counter snapshot; never cached *)

type reject_kind =
  | Rejected  (** admission control: over the in-flight limit *)
  | Bad_request  (** malformed payload, or a request {!resolve} refuses *)
  | Failed  (** the optimization itself returned an error *)

type response =
  | Payload of { body : string; cached : bool }
  | Refused of { kind : reject_kind; message : string }

val arch :
  name:string -> pes:int -> regs:int -> sram:int -> (Archspec.Arch.t, string) result
(** {!Archspec.Arch.make} for untrusted sizes: [Error] unless all three
    are positive.  Backs both the request decoder and the CLI's
    [--pes/--regs/--sram]. *)

val describe : request -> string
(** One-line provenance for logs and fault-injection filters. *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

(** {1 Resolution}

    The one place a request is interpreted: the daemon and the CLI's
    [optimize]/[codesign]/[pipeline]/[metrics] both turn a
    request into a run here, so they validate the same fields with the
    same messages and solve the same configuration (DESIGN §14). *)

type run =
  | Layer of { mode : Thistle.Formulate.arch_mode; nest : Workload.Nest.t }
      (** optimize ([Fixed]) or codesign ([Codesign] at the request's
          area, the Eyeriss area by default) of one layer *)
  | Layers of { area_budget : float; nests : Workload.Nest.t list }
      (** layer-wise co-design at the Eyeriss area, then the shared
          dominant architecture ({!Render.pipeline}) *)

type resolved = {
  key : string;
      (** the request's identity in the result store:
          {!Thistle.Optimize.request_key}, or for a pipeline the
          description joined with every layer's key *)
  config : Thistle.Optimize.config;  (** the base with the request's {!opts} *)
  tech : Archspec.Technology.t;  (** Table III scaled to the request's node *)
  objective : Thistle.Formulate.objective;
  run : run;
}

val resolve : Thistle.Optimize.config -> request -> (resolved, string) result
(** [resolve base request] validates [request] and overlays its {!opts}
    on [base] ([top_choices] and [max_choices]; a pipeline takes only
    [max_choices]).  [Error] names the first bad field — a
    non-positive cap, node or area budget, an unknown layer or
    pipeline — and is what the daemon answers as [Bad_request].
    [Metrics] has nothing to resolve and is an [Error]. *)

val solve : resolved -> (Thistle.Optimize.report, string) result
(** Runs a [Layer]; a pipeline's [Layers] have no single report and
    are an [Error]. *)

val body : resolved -> Thistle.Optimize.report -> string
(** The reply to a solved [Layer]: codesign's {!Render.area_header},
    then {!Render.outcome}. *)

val render : resolved -> (string, string) result
(** Runs the request and renders the reply the daemon serves and
    stores. *)

val nest_of_layer : string -> (Workload.Nest.t, string) result
(** A Table II layer by name. *)

val tech_of_node : float -> (Archspec.Technology.t, string) result
(** Table III scaled first-order to a process node in nm; [Error]
    unless the node is positive and finite and every scaled area and
    energy constant stays finite and positive (nodes beyond about
    1e154 nm or below about 1e-159 nm over- or underflow). *)

val area_budget : Archspec.Technology.t -> float option -> (float, string) result
(** A co-design area budget, the Eyeriss area under the technology when
    [None]; [Error] unless positive and finite. *)
