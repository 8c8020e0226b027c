module Nest = Workload.Nest
module Mapping = Mapspace.Mapping
module Divisors = Mapspace.Divisors

type criterion = Min_energy | Min_delay | Min_edp

type config = { max_trials : int; victory_condition : int; seed : int }

let default_config = { max_trials = 100000; victory_condition = 100000; seed = 42 }

type result = {
  best : (Mapping.t * Accmodel.Evaluate.t) option;
  trials : int;
  valid_trials : int;
  improvements : int;
}

(* Fed from the merged result record, which Exec.Par.map makes
   independent of scheduling, so the counters stay deterministic for a
   fixed seed/budget (see the Obs.Metrics determinism contract). *)
let m_trials = Obs.Metrics.counter "mapper.trials"
let m_valid = Obs.Metrics.counter "mapper.valid_trials"
let m_improvements = Obs.Metrics.counter "mapper.improvements"

let feed_metrics r =
  Obs.Metrics.add m_trials r.trials;
  Obs.Metrics.add m_valid r.valid_trials;
  Obs.Metrics.add m_improvements r.improvements;
  r

let score criterion (m : Accmodel.Evaluate.t) =
  match criterion with
  | Min_energy -> m.Accmodel.Evaluate.energy_pj
  | Min_delay -> m.Accmodel.Evaluate.cycles
  | Min_edp -> m.Accmodel.Evaluate.energy_pj *. m.Accmodel.Evaluate.cycles

let shuffle rng xs =
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let random_mapping rng nest =
  let dims = Nest.dim_names nest in
  let chains =
    List.map
      (fun d ->
        (d, Divisors.random_factorization rng (Nest.extent nest d) ~parts:4))
      dims
  in
  let factors_at i =
    List.map (fun (d, chain) -> (d, List.nth chain i)) chains
  in
  Mapping.canonical
    ~reg:(factors_at 0, shuffle rng dims)
    ~pe:(factors_at 1, shuffle rng dims)
    ~spatial:(factors_at 2)
    ~dram:(factors_at 3, shuffle rng dims)

(* The uninstrumented body, shared by [search] and the parallel streams
   so each trial is counted exactly once. *)
let search_raw ~config ~comm tech arch criterion nest =
  let rng = Random.State.make [| config.seed |] in
  let best = ref None in
  let trials = ref 0 in
  let valid = ref 0 in
  let improvements = ref 0 in
  let since_improvement = ref 0 in
  while !trials < config.max_trials && !since_improvement < config.victory_condition do
    incr trials;
    incr since_improvement;
    let mapping = random_mapping rng nest in
    match Accmodel.Evaluate.evaluate ~comm tech arch nest mapping with
    | Error _ -> ()
    | Ok metrics ->
      incr valid;
      let s = score criterion metrics in
      let improved =
        match !best with None -> true | Some (s', _, _) -> s < s'
      in
      if improved then begin
        best := Some (s, mapping, metrics);
        incr improvements;
        since_improvement := 0
      end
  done;
  {
    best = Option.map (fun (_, m, e) -> (m, e)) !best;
    trials = !trials;
    valid_trials = !valid;
    improvements = !improvements;
  }

let search ?(config = default_config) ~comm tech arch criterion nest =
  Obs.Trace.span "mapper.search"
    ~attrs:[ ("nest", Nest.name nest) ]
    (fun () -> feed_metrics (search_raw ~config ~comm tech arch criterion nest))

let search_parallel ?(config = default_config) ?domains ~comm tech arch criterion nest =
  let domains =
    match domains with
    | Some d -> Int.max 1 d
    | None -> Int.min 8 (Domain.recommended_domain_count ())
  in
  (* Degenerate splits: with more streams than trials some streams would
     get [max_trials = 0] yet still spawn and merge, and the per-stream
     victory shares would collapse toward 1, changing the termination
     semantics versus the sequential path.  Clamp so every stream owns at
     least one trial; a budget of <= 1 trial runs the sequential path
     outright. *)
  let domains = Int.min domains (Int.max config.max_trials 1) in
  if domains = 1 then search ~config ~comm tech arch criterion nest
  else
    Obs.Trace.span "mapper.search_parallel"
      ~attrs:[ ("nest", Nest.name nest); ("domains", string_of_int domains) ]
    @@ fun () -> begin
    (* Split the budgets; each stream searches an independent seeded
       slice, exactly as Timeloop's threads partition the space.  The
       streams run as one batch on the shared domain pool; each stream is
       deterministic in its seed and the merge below visits them in
       stream order, so the result does not depend on scheduling. *)
    let share total k =
      (* Distribute [total] over [domains], remainder to the first ones. *)
      (total / domains) + if k < total mod domains then 1 else 0
    in
    let stream k =
      let config =
        {
          max_trials = share config.max_trials k;
          victory_condition = Int.max 1 (share config.victory_condition k);
          seed = config.seed + (7919 * k);
        }
      in
      search_raw ~config ~comm tech arch criterion nest
    in
    let results = Exec.Par.map ~jobs:domains stream (List.init domains Fun.id) in
    feed_metrics
    @@ List.fold_left
      (fun acc r ->
        let best =
          match (acc.best, r.best) with
          | None, b | b, None -> b
          | Some (_, m1), Some (_, m2) ->
            if score criterion m2 < score criterion m1 then r.best else acc.best
        in
        {
          best;
          trials = acc.trials + r.trials;
          valid_trials = acc.valid_trials + r.valid_trials;
          improvements = acc.improvements + r.improvements;
        })
      { best = None; trials = 0; valid_trials = 0; improvements = 0 }
      results
  end

let exhaustive ~comm tech arch criterion nest ~max_points =
  let dims = Nest.dim_names nest in
  let rec permutations = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> not (String.equal x y)) xs in
          List.map (fun p -> x :: p) (permutations rest))
        xs
  in
  let nperms =
    List.fold_left (fun acc i -> acc * (i + 1)) 1 (List.init (List.length dims) Fun.id)
  in
  (* Check the space size before materializing anything. *)
  let total =
    List.fold_left
      (fun acc d ->
        let c = Divisors.count_factorizations (Nest.extent nest d) ~parts:4 in
        if acc > max_points / Int.max 1 c then max_int else acc * c)
      (nperms * nperms) dims
  in
  if total > max_points then
    invalid_arg
      (Printf.sprintf "Mapper.exhaustive: search space exceeds the limit %d" max_points);
  let perms = permutations dims in
  let chains =
    List.map
      (fun d -> (d, Divisors.factorizations (Nest.extent nest d) ~parts:4))
      dims
  in
  let combos =
    List.fold_left
      (fun acc (d, options) ->
        List.concat_map (fun combo -> List.map (fun c -> (d, c) :: combo) options) acc)
      [ [] ] chains
  in
  let best = ref None in
  List.iter
    (fun combo ->
      let factors_at i = List.map (fun (d, chain) -> (d, List.nth chain i)) combo in
      List.iter
        (fun pe_perm ->
          List.iter
            (fun dram_perm ->
              let mapping =
                Mapping.canonical
                  ~reg:(factors_at 0, dims)
                  ~pe:(factors_at 1, pe_perm)
                  ~spatial:(factors_at 2)
                  ~dram:(factors_at 3, dram_perm)
              in
              match Accmodel.Evaluate.evaluate ~comm tech arch nest mapping with
              | Error _ -> ()
              | Ok metrics ->
                let s = score criterion metrics in
                let improved =
                  match !best with None -> true | Some (s', _, _) -> s < s'
                in
                if improved then best := Some (s, mapping, metrics))
            perms)
        perms)
    combos;
  Option.map (fun (_, m, e) -> (m, e)) !best
