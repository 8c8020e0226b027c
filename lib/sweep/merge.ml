let combine shards =
  let all = List.concat shards in
  let sorted =
    List.stable_sort
      (fun (a : Journal.entry) (b : Journal.entry) -> compare a.Journal.pair b.Journal.pair)
      all
  in
  let rec dedup acc = function
    | [] -> Ok (List.rev acc)
    | (e : Journal.entry) :: rest -> (
      match acc with
      | (prev : Journal.entry) :: _ when prev.Journal.pair = e.Journal.pair ->
        if String.equal prev.Journal.fingerprint e.Journal.fingerprint then
          dedup acc rest
        else
          Error
            (Printf.sprintf
               "merge: pair %d appears with conflicting fingerprints %s and %s \
                (shards ran different formulations or solver configs)"
               e.Journal.pair prev.Journal.fingerprint e.Journal.fingerprint)
      | _ -> dedup (e :: acc) rest)
  in
  dedup [] sorted

let load_files files =
  let rec go acc = function
    | [] -> combine (List.rev acc)
    | f :: rest -> (
      match Journal.load f with
      | Error m -> Error ("merge: " ^ m)
      | Ok entries -> go (entries :: acc) rest)
  in
  go [] files

let missing entries ~npairs =
  let covered = Array.make (Int.max 0 npairs) false in
  List.iter
    (fun (e : Journal.entry) ->
      if e.Journal.pair >= 0 && e.Journal.pair < npairs then
        covered.(e.Journal.pair) <- true)
    entries;
  List.filter (fun i -> not covered.(i)) (List.init (Int.max 0 npairs) Fun.id)
