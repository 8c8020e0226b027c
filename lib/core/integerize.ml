module Nest = Workload.Nest
module Arch = Archspec.Arch
module Level = Mapspace.Level
module Mapping = Mapspace.Mapping
module Divisors = Mapspace.Divisors
module Evaluate = Accmodel.Evaluate
module Kernel = Accmodel.Counts.Kernel

type outcome = {
  arch : Arch.t;
  mapping : Mapping.t;
  metrics : Evaluate.t;
  choice : Permutations.choice;
  continuous_objective : float;
  candidates_tried : int;
  candidates_valid : int;
}

(* Per-call values are functions of the instance alone, so summing them
   across (possibly parallel) calls is jobs-independent — see the
   Obs.Metrics determinism contract. *)
let m_tried = Obs.Metrics.counter "integerize.candidates_tried"
let m_valid = Obs.Metrics.counter "integerize.candidates_valid"
let m_filtered = Obs.Metrics.counter "integerize.candidates_filtered"

let score_of objective ~energy ~cycles =
  match objective with
  | Formulate.Energy -> energy
  | Formulate.Delay -> cycles
  | Formulate.Edp -> energy *. cycles

let score objective (metrics : Evaluate.t) =
  score_of objective ~energy:metrics.Evaluate.energy_pj ~cycles:metrics.Evaluate.cycles

(* Ascending on finite scores; any non-finite score (NaN, +/-inf from an
   overflowed or failed model evaluation) orders after every finite one
   and ties with other non-finite scores — under a minimization
   objective a bogus score must never displace a real one.  Note
   [Float.compare] alone orders NaN *first*, which would put a NaN
   candidate at the top of the shortlist. *)
let compare_scores a b =
  match (Float.is_finite a, Float.is_finite b) with
  | true, true -> Float.compare a b
  | true, false -> -1
  | false, true -> 1
  | false, false -> 0

let improves s = function None -> true | Some s' -> compare_scores s s' < 0

(* Cumulative tile extents (register, PE, SRAM) for one dim: the paper's
   top-down divisor ladder. *)
let dim_triples ~n_divisors instance solution dim =
  let extent = Nest.extent instance.Formulate.nest dim in
  let r_real = Formulate.cumulative instance solution dim ~level:0 in
  let q_real = Formulate.cumulative instance solution dim ~level:1 in
  let s_real = Formulate.cumulative instance solution dim ~level:2 in
  let triples =
    List.concat_map
      (fun s ->
        List.concat_map
          (fun q ->
            List.map
              (fun r -> (r, q, s))
              (Divisors.closest q ~target:r_real ~count:n_divisors))
          (Divisors.closest s ~target:q_real ~count:n_divisors))
      (Divisors.closest extent ~target:s_real ~count:n_divisors)
  in
  (* Order closest-first (log-space distance to the real solution) so
     that trimming the ladder keeps the most promising candidates. *)
  let distance (r, q, s) =
    Float.abs (log (float_of_int r) -. log (Float.max 1.0 r_real))
    +. Float.abs (log (float_of_int q) -. log (Float.max 1.0 q_real))
    +. Float.abs (log (float_of_int s) -. log (Float.max 1.0 s_real))
  in
  List.sort_uniq compare triples
  |> List.stable_sort (fun a b -> Float.compare (distance a) (distance b))

let full_perm nest perm =
  let missing =
    List.filter (fun d -> not (List.mem d perm)) (Nest.dim_names nest)
  in
  perm @ missing

(* Round to nearest: solver-pinned values arrive as floats and may sit a
   few ulps below the integer (3.9999999), which truncation would
   silently turn into 3 and shift the whole divisor ladder.  Values
   genuinely far from an integer are rejected up front by
   [check_pinned] in [run]. *)
let pinned_factor instance ~level dim =
  match List.assoc_opt (Level.trip_var ~level ~dim) instance.Formulate.pinned with
  | Some v -> int_of_float (Float.round v)
  | None -> 1

(* A tileable dim's factor at each canonical level, from its cumulative
   (register, PE, SRAM) tile extents and the dim's extent. *)
let level_factor ~level (r, q, s) extent =
  if level = Level.register_level then r
  else if level = Level.pe_temporal_level then q / r
  else if level = Level.spatial_level then s / q
  else extent / s

(* Build a canonical 4-level mapping from per-dim cumulative extents. *)
let mapping_of_combo instance (combo : (string * (int * int * int)) list) =
  let nest = instance.Formulate.nest in
  let factors_at ~level =
    List.map
      (fun d ->
        match List.assoc_opt d combo with
        | Some t -> (d, level_factor ~level t (Nest.extent nest d))
        | None -> (d, pinned_factor instance ~level d))
      (Nest.dim_names nest)
  in
  let reg_perm = full_perm nest [] in
  let pe_perm = full_perm nest instance.Formulate.choice.Permutations.pe_perm in
  let dram_perm = full_perm nest instance.Formulate.choice.Permutations.dram_perm in
  Mapping.canonical
    ~reg:(factors_at ~level:Level.register_level, reg_perm)
    ~pe:(factors_at ~level:Level.pe_temporal_level, pe_perm)
    ~spatial:(factors_at ~level:Level.spatial_level)
    ~dram:(factors_at ~level:Level.dram_temporal_level, dram_perm)

let arch_candidates ~n_pow2 tech instance solution ~spatial_size =
  match instance.Formulate.arch_mode with
  | Formulate.Fixed arch -> [ arch ]
  | Formulate.Codesign { area_budget } ->
    let env = Formulate.solution_env instance solution in
    let regs_candidates =
      Divisors.closest_powers_of_two ~target:(env Formulate.var_arch_regs) ~count:n_pow2
    in
    let sram_candidates =
      Divisors.closest_powers_of_two ~target:(env Formulate.var_arch_sram) ~count:n_pow2
    in
    let pes = Int.max 1 spatial_size in
    List.concat_map
      (fun registers ->
        List.filter_map
          (fun sram_words ->
            if
              Archspec.Technology.chip_area tech ~pes ~registers ~sram_words
              <= area_budget
            then
              Some
                (Arch.make
                   ~name:(Printf.sprintf "%s-codesign" (Nest.name instance.Formulate.nest))
                   ~pes ~registers ~sram_words)
            else None)
          sram_candidates)
      regs_candidates

(* Pinned trip counts are placement decisions and must be integers; a
   value farther than [tol] from one means the placement data is corrupt,
   and flooring it (the old behavior) would silently shift the whole
   divisor ladder. *)
let check_pinned ?(tol = 1e-6) instance =
  List.find_map
    (fun (x, v) ->
      let r = Float.round v in
      if Float.is_finite v && Float.abs (v -. r) <= tol && r >= 1.0 then None
      else
        Some
          (Printf.sprintf
             "integerize: pinned factor %s = %.17g is not a positive integer \
              (tolerance %g)"
             x v tol))
    instance.Formulate.pinned

(* Largest integer b >= 1 with b^dims <= max_candidates, by integer
   search: the float [pow max_candidates (1/dims)] round-trip undercounts
   on exact roots (e.g. 4096^(1/3) evaluating to 15.999...), quartering a
   3-dim ladder's coverage. *)
let per_dim_budget ~max_candidates ~dims =
  let max_candidates = Int.max 1 max_candidates in
  if dims <= 1 then max_candidates
  else begin
    let fits b =
      b >= 1
      &&
      let rec go acc n =
        n = 0 || (acc <= max_candidates / b && go (acc * b) (n - 1))
      in
      go 1 dims
    in
    (* Double past the answer, then bisect [lo fits, hi doesn't]. *)
    let rec grow b = if b > 0 && fits (2 * b) then grow (2 * b) else b in
    let lo = grow 1 in
    let rec bisect lo hi =
      if hi - lo <= 1 then lo
      else begin
        let mid = lo + ((hi - lo) / 2) in
        if fits mid then bisect mid hi else bisect lo mid
      end
    in
    bisect lo (2 * lo)
  end

(* The tileable dims' divisor ladders.  The cross product is bounded by
   trimming each ladder (ordered closest-first) to the per-dim budget
   rather than truncating the product itself: cutting mid-product would
   silently drop whole regions of the candidate space. *)
let ladders ~n_divisors ~max_candidates instance solution =
  let per_dim =
    List.map
      (fun d -> (d, dim_triples ~n_divisors instance solution d))
      instance.Formulate.tileable
  in
  let budget = per_dim_budget ~max_candidates ~dims:(List.length per_dim) in
  List.map (fun (d, triples) -> (d, List.filteri (fun i _ -> i < budget) triples)) per_dim

let levels = List.init (List.length Level.canonical) Fun.id

(* The instance's canonical kernel, holding its pinned factors and its
   permutations.  The permutations are checked once, here: when they are
   not permutations of the nest's dims every candidate fails
   [Mapping.validate].  Candidates then rewrite only the tileable dims'
   factors. *)
let compile instance =
  let nest = instance.Formulate.nest in
  let kernel = Kernel.compile nest Level.canonical in
  List.iteri
    (fun dim d ->
      List.iter
        (fun level -> Kernel.set_factor kernel ~level ~dim (pinned_factor instance ~level d))
        levels)
    (Nest.dim_names nest);
  let choice = instance.Formulate.choice in
  let perms_ok =
    Kernel.set_perm kernel ~level:Level.pe_temporal_level
      (full_perm nest choice.Permutations.pe_perm)
    && Kernel.set_perm kernel ~level:Level.dram_temporal_level
         (full_perm nest choice.Permutations.dram_perm)
  in
  (kernel, perms_ok)

let run ?(n_divisors = 2) ?(n_pow2 = 2) ?(max_candidates = 65536)
    ?(min_pe_utilization = 0.0) ?(contention = false) tech instance solution =
  match check_pinned instance with
  | Some msg -> Error msg
  | None ->
  let nest = instance.Formulate.nest in
  let per_dim = ladders ~n_divisors ~max_candidates instance solution in
  (* Everything below is scratch of this call (integerize runs under
     [Exec.Par.map]). *)
  let kernel, perms_ok = compile instance in
  let tiles =
    Array.of_list
      (List.map
         (fun (d, triples) ->
           (Option.get (Kernel.dim_index kernel d), Nest.extent nest d, Array.of_list triples))
         per_dim)
  in
  (* Codesign candidates depend on the mapping only through its PE
     count. *)
  let archs =
    let memo = Hashtbl.create 16 in
    fun spatial_size ->
      let pes = Int.max 1 spatial_size in
      match Hashtbl.find_opt memo pes with
      | Some archs -> archs
      | None ->
        let archs = arch_candidates ~n_pow2 tech instance solution ~spatial_size in
        Hashtbl.add memo pes archs;
        archs
  in
  (* Candidates are scored under the same communication model the GP was
     lowered with (DESIGN §16). *)
  let comm = instance.Formulate.comm and objective = instance.Formulate.objective in
  let chosen = Array.make (Array.length tiles) (1, 1, 1) in
  let tried = ref 0 in
  let valid = ref 0 in
  let best = ref None in
  (* One combo, the kernel holding its factors: validate them, then per
     architecture candidate the utilization floor, the capacities over
     the footprints and the score over the fills.  Each stage runs at
     most once per combo, shared by every candidate that reaches it. *)
  let visit () =
    let valid_mapping = perms_ok && Kernel.valid_factors kernel in
    let spatial_size = Kernel.spatial_size kernel in
    List.iter
      (fun arch ->
        incr tried;
        let utilization = float_of_int spatial_size /. float_of_int arch.Arch.pe_count in
        if utilization < min_pe_utilization || not valid_mapping then ()
        else begin
          Kernel.footprints kernel;
          if Evaluate.fits arch kernel then begin
            Kernel.fills kernel;
            match Evaluate.energy_delay ~comm ~contention tech arch kernel with
            | None -> ()
            | Some (energy, cycles) ->
              incr valid;
              let s = score_of objective ~energy ~cycles in
              if improves s (Option.map (fun (s', _, _) -> s') !best) then
                best := Some (s, arch, Array.copy chosen)
          end
        end)
      (archs spatial_size)
  in
  (* The cross product of the ladders, first tileable dim outermost. *)
  let rec walk i =
    if i = Array.length tiles then visit ()
    else begin
      let dim, extent, ladder = tiles.(i) in
      Array.iter
        (fun t ->
          chosen.(i) <- t;
          List.iter
            (fun level -> Kernel.set_factor kernel ~level ~dim (level_factor ~level t extent))
            levels;
          walk (i + 1))
        ladder
    end
  in
  Obs.Trace.span "evaluate" (fun () -> walk 0);
  Obs.Metrics.add m_tried !tried;
  Obs.Metrics.add m_valid !valid;
  Obs.Metrics.add m_filtered (!tried - !valid);
  match !best with
  | None -> Error "integerize: no feasible integer candidate"
  | Some (_, arch, chosen) -> begin
    (* Only the winner becomes a mapping, evaluated in full for the
       reported metrics.  Its combo lists the last tileable dim first,
       matching the walk, where the last write of a dim wins. *)
    let combo = List.rev (List.mapi (fun i (d, _) -> (d, chosen.(i))) per_dim) in
    let mapping = mapping_of_combo instance combo in
    match Evaluate.evaluate ~comm ~contention tech arch nest mapping with
    | Error msg -> Error ("integerize: winner failed evaluation: " ^ msg)
    | Ok metrics ->
      Ok
        {
          arch;
          mapping;
          metrics;
          choice = instance.Formulate.choice;
          continuous_objective = solution.Gp.Solver.objective;
          candidates_tried = !tried;
          candidates_valid = !valid;
        }
  end
