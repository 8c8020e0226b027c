type t = Monomial.t list (* sorted by exponent vector, like terms merged *)

let normalize ms =
  let sorted = List.sort Monomial.compare_exponents ms in
  let rec merge = function
    | a :: b :: rest when Monomial.compare_exponents a b = 0 ->
      let c = Monomial.coeff a +. Monomial.coeff b in
      merge (Monomial.make c (Monomial.exponents a) :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  merge sorted

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

let compare a b = List.compare Monomial.compare a b

let equal a b = compare a b = 0

let pp ppf p =
  match p with
  | [] -> Format.fprintf ppf "0"
  | m :: rest ->
    Monomial.pp ppf m;
    List.iter (fun t -> Format.fprintf ppf " + %a" Monomial.pp t) rest

let to_string p = Format.asprintf "%a" pp p
