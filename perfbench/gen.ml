(* Seeded request generation.  The harness hands the program only the
   requests built from these draws, and the same seed always gives the
   same list. *)

let rng seed = Random.State.make [| seed |]

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The zoo's layers with a distinct nest shape, in zoo order: vgg-7
   repeats vgg-6's shape (likewise vgg-10, vgg-12 and vgg-13), so only
   the first name of each shape is kept. *)
let distinct_shapes (layers : Workload.Conv.t list) =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (c : Workload.Conv.t) ->
      let shape = { c with Workload.Conv.layer_name = "" } in
      if Hashtbl.mem seen shape then false
      else begin
        Hashtbl.add seen shape ();
        true
      end)
    layers

let zoo_shapes () = distinct_shapes (List.concat_map snd Workload.Zoo.pipelines)

(* Window strata: 3x3, 1x1, then the 5x5/7x7/11x11 layers. *)
let window_strata (layers : Workload.Conv.t list) =
  let having p = List.filter (fun (c : Workload.Conv.t) -> p c.Workload.Conv.kernel) layers in
  [ having (( = ) 3); having (( = ) 1); having (fun k -> k <> 1 && k <> 3) ]

(* Largest-remainder apportionment of [n] draws over strata of the
   given sizes, so every run has the same mix.  Ties on the remainder
   go to the earlier stratum. *)
let allocate n sizes =
  let total = Array.fold_left ( + ) 0 sizes in
  if n < 0 || n > total then invalid_arg "Gen.allocate: n outside [0, total]";
  let counts = Array.map (fun s -> n * s / total) sizes in
  let left = n - Array.fold_left ( + ) 0 counts in
  let by_remainder =
    List.stable_sort
      (fun i j -> compare (n * sizes.(j) mod total) (n * sizes.(i) mod total))
      (List.init (Array.length sizes) Fun.id)
  in
  List.iteri (fun r i -> if r < left then counts.(i) <- counts.(i) + 1) by_remainder;
  counts

(* Draw [n] items over the strata: each stratum gets its apportioned
   share; within it the items are ordered by [key] and cut into that
   many contiguous groups of near-equal size, and one item is drawn from
   each group, so a run spans small and large layers alike.  The drawn
   items come back in a seeded random order. *)
let stratified rng ~n ~key strata =
  let strata =
    Array.of_list
      (List.map (fun s -> Array.of_list (List.stable_sort (fun a b -> compare (key a) (key b)) s)) strata)
  in
  let counts = allocate n (Array.map Array.length strata) in
  let picks = ref [] in
  Array.iteri
    (fun s items ->
      let m = Array.length items and k = counts.(s) in
      for g = 0 to k - 1 do
        let lo = g * m / k and hi = (g + 1) * m / k in
        picks := items.(lo + Random.State.int rng (hi - lo)) :: !picks
      done)
    strata;
  shuffle rng (List.rev !picks)

(* Skewed popularity for repeated requests: item [i] gets weight
   1 / (1 + rank i) under a seeded random ranking (Zipf with s = 1). *)
let popularity rng n =
  Array.of_list (List.map (fun r -> 1.0 /. float_of_int (1 + r)) (shuffle rng (List.init n Fun.id)))

(* An index below [upto], drawn by weight. *)
let pick rng weights upto =
  let total = ref 0.0 in
  for i = 0 to upto - 1 do
    total := !total +. weights.(i)
  done;
  let x = Random.State.float rng !total in
  let rec go i acc =
    let acc = acc +. weights.(i) in
    if x < acc || i = upto - 1 then i else go (i + 1) acc
  in
  go 0 0.0

(* A request stream over [distinct] requests in which request [j] is
   first asked after request [j - 1]'s block, and each first ask is
   followed by [repeats] asks drawn by popularity from the requests
   introduced so far. *)
let stream rng ~distinct ~repeats =
  let w = popularity rng distinct in
  List.concat
    (List.init distinct (fun j -> j :: List.init repeats (fun _ -> pick rng w (j + 1))))
