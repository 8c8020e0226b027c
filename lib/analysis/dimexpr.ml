module M = Symexpr.Monomial
module P = Symexpr.Posynomial

type ctx = { provenance : string option; mutable diags : Diagnostic.t list }

let ctx ?provenance () = { provenance; diags = [] }

let diagnostics c = List.rev c.diags

let report c ?constraint_name fmt =
  Printf.ksprintf
    (fun message ->
      c.diags <-
        Diagnostic.error ~pass:"units" ?constraint_name ?provenance:c.provenance
          message
        :: c.diags)
    fmt

type mono = { m : M.t; mu : Units.t }

let mono u m = { m; mu = u }

let mconst u c = { m = M.const c; mu = u }

let mvar u x = { m = M.var x; mu = u }

let mmul a b = { m = M.mul a.m b.m; mu = Units.mul a.mu b.mu }

let mpow a e = { m = M.pow a.m e; mu = Units.pow a.mu e }

let mscale u c a = { m = M.scale c a.m; mu = Units.mul u a.mu }

let mono_unit a = a.mu

type t = { p : P.t; pu : Units.t }

let of_posynomial u p = { p; pu = u }

let of_mono a = { p = P.of_monomial a.m; pu = a.mu }

let add c ~what a b =
  if not (Units.equal a.pu b.pu) then
    report c "%s: adding %s to %s" what (Units.to_string a.pu)
      (Units.to_string b.pu);
  { p = P.add a.p b.p; pu = a.pu }

let sum c ~what u ts =
  List.iter
    (fun t ->
      if not (Units.equal u t.pu) then
        report c "%s: summing %s into %s" what (Units.to_string t.pu)
          (Units.to_string u))
    ts;
  { p = P.sum (List.map (fun t -> t.p) ts); pu = u }

let mul_mono a t = { p = P.mul_monomial a.m t.p; pu = Units.mul a.mu t.pu }

let scale u c t = { p = P.scale c t.p; pu = Units.mul u t.pu }

let bind x v t = { t with p = P.bind x v t.p }

let posy t = t.p

let unit_of t = t.pu

let le c ~name lhs rhs =
  if not (Units.equal lhs.pu rhs.mu) then
    report c ~constraint_name:name "left side is %s but the bound is %s"
      (Units.to_string lhs.pu) (Units.to_string rhs.mu);
  P.div_monomial lhs.p rhs.m

let eq c ~name lhs rhs =
  if not (Units.equal lhs.mu rhs.mu) then
    report c ~constraint_name:name "equating %s with %s"
      (Units.to_string lhs.mu) (Units.to_string rhs.mu);
  M.div lhs.m rhs.m

let objective c ~expected t =
  if not (Units.equal expected t.pu) then
    report c "objective: expected %s, got %s" (Units.to_string expected)
      (Units.to_string t.pu);
  t.p
