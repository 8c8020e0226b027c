(* Order statistics and means over benchmark samples. *)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank percentile: the smallest sample with at least [p] of
   the samples at or below it.  [p] is a fraction in (0, 1]. *)
let percentile p xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.percentile: no samples"
  | s ->
    let n = List.length s in
    let rank = Int.max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
    List.nth s (Int.min n rank - 1)

(* Samples strictly above the [p] percentile's rank: a tail percentile
   is only reported when at least ten samples lie beyond it. *)
let beyond p xs =
  let n = List.length xs in
  n - Int.max 1 (int_of_float (Float.ceil (p *. float_of_int n)))

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Exact for a fixed list: the log-sum is taken in list order. *)
let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
    if List.exists (fun x -> not (x > 0.0)) xs then
      invalid_arg "Stats.geomean: non-positive sample";
    Float.exp
      (List.fold_left (fun acc x -> acc +. Float.log x) 0.0 xs
      /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs
