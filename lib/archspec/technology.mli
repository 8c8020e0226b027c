(** Technology parameters (paper Table III, 45 nm) and the analytical
    per-access energy / area models of Eq. 4 and Eq. 5.

    Units: areas in um^2, energies in pJ, capacities in 16-bit words. *)

type t = {
  area_mac : float;  (** um^2 per MAC unit *)
  area_register : float;  (** um^2 per register word *)
  area_sram_word : float;  (** um^2 per SRAM word *)
  energy_mac : float;  (** pJ per int16 MAC *)
  sigma_register : float;
      (** register energy constant: eps_R = sigma_R * R (pJ, R in words) *)
  sigma_sram : float;
      (** SRAM energy constant: eps_S = sigma_S * sqrt S (pJ, S in words).
          Stored here in pJ per sqrt-word; Table III lists the raw constant
          17.88 with a 10^-3 scale like the register constant. *)
  energy_dram : float;  (** pJ per DRAM word access *)
  dram_bandwidth : float;  (** words per cycle *)
  sram_bandwidth : float;  (** words per cycle *)
  links : Link.set;
      (** per-level link parameters for the communication-aware delay
          model (DESIGN §16); the aggregate bandwidths above remain the
          source of truth for the overlapped model *)
}

val make :
  area_mac:float ->
  area_register:float ->
  area_sram_word:float ->
  energy_mac:float ->
  sigma_register:float ->
  sigma_sram:float ->
  energy_dram:float ->
  dram_bandwidth:float ->
  sram_bandwidth:float ->
  links:Link.set ->
  t
(** Validating constructor, mirroring {!Arch.make}: every float field
    must be finite and positive, else [Invalid_argument] naming the
    offending field.  (Link fields are validated by {!Link.make}.)  A
    zero, negative or NaN bandwidth would otherwise flow into the DGP as
    [1.0 /. bw] and only die much later — or not at all, as a
    sign-flipped "posynomial". *)

val table3 : t
(** The paper's Table III values (45 nm, Accelergy/Cacti-derived), with the
    Fig. 3(a) example bandwidths and Eyeriss-calibrated link parameters. *)

val edge : t
(** A bandwidth-starved edge deployment point: Table III energies and
    areas with a single-channel DRAM interface (1 word/cycle, 8-cycle
    burst setup) and a narrow NoC (16 words/cycle).  Communication-limited
    by construction; used to exercise the communication-aware model where
    it disagrees with the overlapped one. *)

val reference_node_nm : float
(** The process node Table III describes: 45 nm. *)

val scale_to_node : t -> node_nm:float -> t
(** First-order technology scaling from the 45 nm reference: on-chip area
    and dynamic energy scale with the square of the feature-size ratio;
    off-chip DRAM access energy, the bandwidths and the link parameters
    are left unchanged.  Coarse by construction — intended for what-if
    exploration, not for sign-off numbers.  Raises [Invalid_argument] for
    non-positive nodes. *)

val register_access_energy : t -> registers:int -> float
(** [eps_R = sigma_R * R]: per-access register-file energy grows linearly
    with the file size (Eq. 4). *)

val sram_access_energy : t -> words:int -> float
(** [eps_S = sigma_S * sqrt S] (Eq. 4). *)

val pe_area : t -> registers:int -> float
(** Area of one PE: [area_register * R + area_mac]. *)

val chip_area : t -> pes:int -> registers:int -> sram_words:int -> float
(** Left-hand side of the area constraint (Eq. 5):
    [(area_register * R + area_mac) * P + area_sram_word * S]. *)

val pp : Format.formatter -> t -> unit
