module Arch = Archspec.Arch
module Tech = Archspec.Technology

type config = {
  trials_per_point : int;
  seed : int;
  min_regs : int;
  max_regs : int;
  min_sram : int;
  max_sram : int;
}

let default_config =
  {
    trials_per_point = 2000;
    seed = 42;
    min_regs = 4;
    max_regs = 1024;
    min_sram = 1024;
    max_sram = 256 * 1024;
  }

type point = {
  arch : Arch.t;
  best : (Mapspace.Mapping.t * Accmodel.Evaluate.t) option;
}

type result = { points : point list; winner : point option; total_trials : int }

let powers_of_two lo hi =
  let rec go v acc = if v > hi then List.rev acc else go (v * 2) (v :: acc) in
  go lo []

let architectures tech config ~area_budget =
  List.concat_map
    (fun registers ->
      List.filter_map
        (fun sram_words ->
          let fixed = tech.Tech.area_sram_word *. float_of_int sram_words in
          let per_pe = Tech.pe_area tech ~registers in
          let pes = int_of_float ((area_budget -. fixed) /. per_pe) in
          if pes < 1 then None
          else
            Some
              (Arch.make
                 ~name:(Printf.sprintf "grid-r%d-s%d" registers sram_words)
                 ~pes ~registers ~sram_words))
        (powers_of_two config.min_sram config.max_sram))
    (powers_of_two config.min_regs config.max_regs)

let search ?(config = default_config) ~comm tech ~area_budget criterion nest =
  let archs = architectures tech config ~area_budget in
  let total_trials = ref 0 in
  let points =
    List.mapi
      (fun i arch ->
        let search_config =
          {
            Search.max_trials = config.trials_per_point;
            victory_condition = config.trials_per_point;
            seed = config.seed + i;
          }
        in
        let r = Search.search ~config:search_config ~comm tech arch criterion nest in
        total_trials := !total_trials + r.Search.trials;
        { arch; best = r.Search.best })
      archs
  in
  let winner =
    List.fold_left
      (fun acc point ->
        match (acc, point.best) with
        | None, Some _ -> Some point
        | Some { best = Some (_, incumbent); _ }, Some (_, challenger)
          when Search.score criterion challenger < Search.score criterion incumbent ->
          Some point
        | acc, _ -> acc)
      None points
  in
  { points; winner; total_trials = !total_trials }
