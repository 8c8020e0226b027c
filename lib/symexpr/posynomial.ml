type t = Monomial.t list
(* sorted by exponent vector, like terms merged, except after
   [mul_monomial] and [div_monomial], which keep their argument's order *)

let rec strictly_sorted = function
  | a :: (b :: _ as rest) -> Monomial.compare_exponents a b < 0 && strictly_sorted rest
  | _ -> true

(* Strictly sorted terms have nothing to sort or merge. *)
let normalize ms =
  if strictly_sorted ms then ms
  else begin
    let sorted = List.sort Monomial.compare_exponents ms in
    let rec merge = function
      | a :: b :: rest when Monomial.compare_exponents a b = 0 ->
        let c = Monomial.coeff a +. Monomial.coeff b in
        merge (Monomial.make c (Monomial.exponents a) :: rest)
      | a :: rest -> a :: merge rest
      | [] -> []
    in
    merge sorted
  end

let zero = []

let of_monomial m = [ m ]

let const c = [ Monomial.const c ]

let var x = [ Monomial.var x ]

let of_monomials ms = normalize ms

let terms p = p

let is_zero p = p = []

let add a b = normalize (a @ b)

let sum ps = normalize (List.concat ps)

let mul a b =
  normalize (List.concat_map (fun ma -> List.map (Monomial.mul ma) b) a)

let mul_monomial m p = List.map (Monomial.mul m) p

let div_monomial p m = List.map (fun t -> Monomial.div t m) p

let scale c p = List.map (Monomial.scale c) p

let bind x v p = normalize (List.map (Monomial.bind x v) p)

let eval env p = List.fold_left (fun acc m -> acc +. Monomial.eval env m) 0.0 p

let variables p =
  List.sort_uniq String.compare (List.concat_map Monomial.variables p)

let num_terms = List.length

(* [mul_monomial] and [div_monomial] keep their argument's term order,
   so two sums are compared in normal form. *)
let compare a b = List.compare Monomial.compare (normalize a) (normalize b)

let equal a b = compare a b = 0

let pp ppf p =
  match p with
  | [] -> Format.fprintf ppf "0"
  | m :: rest ->
    Monomial.pp ppf m;
    List.iter (fun t -> Format.fprintf ppf " + %a" Monomial.pp t) rest

let to_string p = Format.asprintf "%a" pp p
