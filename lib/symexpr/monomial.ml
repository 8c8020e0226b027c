type t = {
  coeff : float;
  exps : (string * float) list; (* sorted by variable name, no zero exponents *)
}

let check_coeff who c =
  (* [infinity > 0.0] holds and [nan <> 0.0] holds, so both checks must be
     explicit about finiteness or poisoned expressions build silently. *)
  if not (Float.is_finite c && c > 0.0) then
    invalid_arg
      (Printf.sprintf "Monomial.%s: coefficient must be finite positive (got %g)" who c)

let check_exp who (x, a) =
  if not (Float.is_finite a) then
    invalid_arg
      (Printf.sprintf "Monomial.%s: exponent of %s must be finite (got %g)" who x a)

let rec strictly_sorted = function
  | (x, _) :: ((y, _) :: _ as rest) -> String.compare x y < 0 && strictly_sorted rest
  | _ -> true

(* Checks the merged exponents, so a sum that overflows is refused like
   a non-finite input.  Strictly sorted input has nothing to sort or
   merge. *)
let normalize who exps =
  let merged =
    if strictly_sorted exps then exps
    else begin
      let sorted = List.sort (fun (x, _) (y, _) -> String.compare x y) exps in
      (* Merge duplicate variables by adding exponents. *)
      let rec merge = function
        | (x, a) :: (y, b) :: rest when String.equal x y -> merge ((x, a +. b) :: rest)
        | pair :: rest -> pair :: merge rest
        | [] -> []
      in
      merge sorted
    end
  in
  List.iter (check_exp who) merged;
  if List.exists (fun (_, a) -> a = 0.0) merged then List.filter (fun (_, a) -> a <> 0.0) merged
  else merged

(* [normalize who (a @ b)] for two normalized exponent lists, in one
   pass: a variable in both gets [a +. b], checked in name order like
   [normalize]'s, and is dropped at zero. *)
let rec merge_normalized who a b =
  match (a, b) with
  | [], l | l, [] -> l
  | ((x, ea) as pa) :: ra, ((y, eb) as pb) :: rb ->
    let c = String.compare x y in
    if c < 0 then pa :: merge_normalized who ra b
    else if c > 0 then pb :: merge_normalized who a rb
    else begin
      let e = ea +. eb in
      check_exp who (x, e);
      if e = 0.0 then merge_normalized who ra rb else (x, e) :: merge_normalized who ra rb
    end

let one = { coeff = 1.0; exps = [] }

let const c =
  check_coeff "const" c;
  { coeff = c; exps = [] }

let var x = { coeff = 1.0; exps = [ (x, 1.0) ] }

let var_pow x a = { coeff = 1.0; exps = normalize "var_pow" [ (x, a) ] }

let make c exps =
  check_coeff "make" c;
  { coeff = c; exps = normalize "make" exps }

let coeff m = m.coeff

let exponents m = m.exps

let exponent m x = try List.assoc x m.exps with Not_found -> 0.0

let mentions m x = List.mem_assoc x m.exps

let variables m = List.map fst m.exps

let mul a b =
  let coeff = a.coeff *. b.coeff in
  check_coeff "mul" coeff;
  { coeff; exps = merge_normalized "mul" a.exps b.exps }

let div a b =
  let coeff = a.coeff /. b.coeff in
  check_coeff "div" coeff;
  let inv = List.map (fun (x, e) -> (x, -.e)) b.exps in
  { coeff; exps = merge_normalized "div" a.exps inv }

let pow m a =
  if not (Float.is_finite a) then
    invalid_arg (Printf.sprintf "Monomial.pow: power must be finite (got %g)" a);
  let coeff = Float.pow m.coeff a in
  check_coeff "pow" coeff;
  { coeff; exps = normalize "pow" (List.map (fun (x, e) -> (x, e *. a)) m.exps) }

let scale c m =
  check_coeff "scale" c;
  let coeff = c *. m.coeff in
  check_coeff "scale" coeff;
  { m with coeff }

let subst x m' m =
  match List.assoc_opt x m.exps with
  | None -> m
  | Some a ->
    let without = List.filter (fun (y, _) -> not (String.equal x y)) m.exps in
    mul { m with exps = without } (pow m' a)

let bind x v m =
  if not (Float.is_finite v && v > 0.0) then
    invalid_arg "Monomial.bind: value must be finite positive";
  subst x (const v) m

let eval env m =
  List.fold_left (fun acc (x, a) -> acc *. Float.pow (env x) a) m.coeff m.exps

let is_constant m = m.exps = []

(* Polymorphic [compare] on the exponent lists, written out: a shorter
   prefix first, then names, then exponents. *)
let rec compare_exps a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (x, ea) :: ra, (y, eb) :: rb -> (
    match String.compare x y with
    | 0 -> ( match Float.compare ea eb with 0 -> compare_exps ra rb | c -> c)
    | c -> c)

let compare_exponents a b = compare_exps a.exps b.exps

let compare a b =
  match compare_exponents a b with 0 -> Float.compare a.coeff b.coeff | c -> c

let equal a b = compare a b = 0

let pp ppf m =
  if m.exps = [] then Format.fprintf ppf "%g" m.coeff
  else begin
    let started = ref false in
    if m.coeff <> 1.0 then begin
      Format.fprintf ppf "%g" m.coeff;
      started := true
    end;
    let print_factor (x, a) =
      if !started then Format.fprintf ppf "*";
      started := true;
      if a = 1.0 then Format.fprintf ppf "%s" x else Format.fprintf ppf "%s^%g" x a
    in
    List.iter print_factor m.exps
  end

let to_string m = Format.asprintf "%a" pp m
