module M = Symexpr.Monomial
module P = Symexpr.Posynomial

type t = { lo : float; hi : float }

let full = { lo = 0.0; hi = infinity }

let make ~lo ~hi =
  if not (lo >= 0.0 && hi >= lo) then
    invalid_arg (Printf.sprintf "Interval.make: bad bounds [%g, %g]" lo hi);
  { lo; hi }

let point v =
  if not (Float.is_finite v && v > 0.0) then
    invalid_arg (Printf.sprintf "Interval.point: %g not finite positive" v);
  { lo = v; hi = v }

let mem ?(slack = 0.0) v t =
  (* NaN fails both comparisons; an infinite [v] is a member only when
     the upper side is unbounded. *)
  v >= t.lo *. (1.0 -. slack) && v <= t.hi *. (1.0 +. slack)

(* [0. *. infinity] is NaN in IEEE arithmetic; for bounds the sound
   results are 0 (lower: one factor may be 0) and infinity (upper: one
   factor may be unbounded). *)
let mul_lo a b = if a = 0.0 || b = 0.0 then 0.0 else a *. b

let mul_hi a b = if a = infinity || b = infinity then infinity else a *. b

let mul a b = { lo = mul_lo a.lo b.lo; hi = mul_hi a.hi b.hi }

(* [x ** e] is monotone on the positive axis, and OCaml's [( ** )]
   already takes the right limits at the endpoints we use:
   [0. ** e = 0.] and [infinity ** e = infinity] for [e > 0.], while
   [0. ** e = infinity] and [infinity ** e = 0.] for [e < 0.]. *)
let pow t e =
  if e = 0.0 then { lo = 1.0; hi = 1.0 }
  else if e > 0.0 then { lo = t.lo ** e; hi = t.hi ** e }
  else { lo = t.hi ** e; hi = t.lo ** e }

let inv t = pow t (-1.0)

let monomial env m =
  List.fold_left
    (fun acc (x, e) -> mul acc (pow (env x) e))
    (point (M.coeff m)) (M.exponents m)

let posynomial env p =
  List.fold_left
    (fun acc m ->
      let i = monomial env m in
      { lo = acc.lo +. i.lo; hi = acc.hi +. i.hi })
    { lo = 0.0; hi = 0.0 } (P.terms p)

let pp ppf t = Format.fprintf ppf "[%g, %g]" t.lo t.hi
