(* Tests for the static-analysis layer: the unit algebra, the finiteness
   guards on the symbolic substrate, the DGP discipline checker, the
   dimensional-analysis combinators, the post-solve certificate and the
   lint gate — including the property that every formulation Thistle
   builds over the zoo lints clean. *)

module M = Symexpr.Monomial
module P = Symexpr.Posynomial
module U = Analysis.Units
module Dg = Analysis.Diagnostic
module D = Analysis.Dimexpr
module Disc = Analysis.Discipline
module Cert = Analysis.Certificate
module L = Analysis.Lint
module F = Thistle.Formulate
module O = Thistle.Optimize
module Perm = Thistle.Permutations
module Arch = Archspec.Arch
module Conv = Workload.Conv

let tech = Archspec.Technology.table3

let raises_invalid name f =
  Alcotest.(check bool) name true
    (match f () with () -> false | exception Invalid_argument _ -> true)

let errors_of diags = List.length (Dg.errors diags)

(* --- units --- *)

let test_units_algebra () =
  let pj_per_elem = U.div U.pj U.elements in
  Alcotest.(check bool) "mul/inv = div" true
    (U.equal pj_per_elem (U.mul U.pj (U.inv U.elements)));
  Alcotest.(check bool) "x/x is dimensionless" true
    (U.is_dimensionless (U.div U.elements U.elements));
  Alcotest.(check bool) "pow distributes" true
    (U.equal (U.pow pj_per_elem 2.0) (U.div (U.mul U.pj U.pj) (U.mul U.elements U.elements)));
  Alcotest.(check bool) "round-trip equality" true
    (U.equal U.cycles (U.mul (U.div U.cycles U.pj) U.pj));
  Alcotest.(check bool) "distinct bases differ" false (U.equal U.pj U.cycles);
  Alcotest.(check string) "dimensionless prints 1" "1" (U.to_string U.dimensionless);
  raises_invalid "pow of nan" (fun () -> ignore (U.pow U.pj Float.nan))

(* --- monomial finiteness guards (satellite fix) --- *)

let test_monomial_guards () =
  raises_invalid "const inf" (fun () -> ignore (M.const Float.infinity));
  raises_invalid "const nan" (fun () -> ignore (M.const Float.nan));
  raises_invalid "make nan exponent" (fun () -> ignore (M.make 1.0 [ ("x", Float.nan) ]));
  raises_invalid "var_pow inf" (fun () -> ignore (M.var_pow "x" Float.infinity));
  raises_invalid "bind inf" (fun () -> ignore (M.bind "x" Float.infinity (M.var "x")));
  raises_invalid "pow overflow" (fun () -> ignore (M.pow (M.const 1e308) 4.0));
  raises_invalid "pow underflow to 0" (fun () -> ignore (M.pow (M.const 1e-308) 4.0));
  raises_invalid "pow of nan" (fun () -> ignore (M.pow (M.var "x") Float.nan));
  (* Products, quotients and scalings check their results too. *)
  raises_invalid "mul overflow" (fun () -> ignore (M.mul (M.const 1e200) (M.const 1e200)));
  raises_invalid "div underflow to 0" (fun () ->
      ignore (M.div (M.const 1e-300) (M.const 1e300)));
  raises_invalid "scale overflow" (fun () -> ignore (M.scale 1e200 (M.const 1e200)));
  raises_invalid "merged exponent overflow" (fun () ->
      ignore (M.mul (M.var_pow "x" 1e308) (M.var_pow "x" 1e308)));
  (* Well-formed operations keep working. *)
  Alcotest.(check bool) "pow in range ok" true
    (M.equal (M.pow (M.const 2.0) 3.0) (M.const 8.0))

(* --- Gp.Problem.make validation (satellite fix) --- *)

let test_problem_make_guards () =
  raises_invalid "duplicate constraint name" (fun () ->
      ignore
        (Gp.Problem.make ~objective:(P.var "x")
           ~ineqs:[ ("c", P.var "x"); ("c", P.var "y") ]
           ()));
  raises_invalid "duplicate across kinds" (fun () ->
      ignore
        (Gp.Problem.make ~objective:(P.var "x")
           ~ineqs:[ ("c", P.var "x") ]
           ~eqs:[ ("c", M.var "y") ]
           ()));
  raises_invalid "empty constraint name" (fun () ->
      ignore (Gp.Problem.make ~objective:(P.var "x") ~ineqs:[ ("", P.var "x") ] ()));
  raises_invalid "zero objective" (fun () -> ignore (Gp.Problem.make ~objective:P.zero ()));
  raises_invalid "zero inequality" (fun () ->
      ignore (Gp.Problem.make ~objective:(P.var "x") ~ineqs:[ ("c", P.zero) ] ()))

let test_violations_nonfinite () =
  let prob =
    Gp.Problem.make ~objective:(P.var "x")
      ~ineqs:[ ("c", P.var "x") ]
      ~eqs:[ ("e", M.var "y") ]
      ()
  in
  (* NaN inequality evaluation and a non-positive equality value must
     both surface as infinite violations, never as feasible. *)
  let env = function "x" -> Float.nan | _ -> -1.0 in
  let vs = Gp.Problem.violations prob env in
  Alcotest.(check bool) "ineq reported" true
    (List.assoc_opt "c" vs = Some Float.infinity);
  Alcotest.(check bool) "eq reported" true
    (List.assoc_opt "e" vs = Some Float.infinity);
  Alcotest.(check bool) "not feasible" false (Gp.Problem.is_feasible prob env)

(* --- discipline checker --- *)

let test_discipline_unbounded () =
  let below = Gp.Problem.make ~objective:(P.var "x") () in
  let ds = Disc.check below in
  Alcotest.(check bool) "unbounded below flagged" true (errors_of ds = 1);
  let above =
    Gp.Problem.make ~objective:(P.of_monomial (M.var_pow "x" (-1.0))) ()
  in
  Alcotest.(check bool) "unbounded above flagged" true
    (errors_of (Disc.check above) = 1);
  (* x + 1/x bounds itself; no constraint needed. *)
  let self =
    Gp.Problem.make
      ~objective:(P.add (P.var "x") (P.of_monomial (M.var_pow "x" (-1.0))))
      ()
  in
  Alcotest.(check int) "self-bounded clean" 0 (List.length (Disc.check self));
  (* A lower bound from an inequality clears the flag... *)
  let bounded =
    Gp.Problem.make ~objective:(P.var "x")
      ~ineqs:[ ("x>=1", P.of_monomial (M.var_pow "x" (-1.0))) ]
      ()
  in
  Alcotest.(check int) "inequality bound clean" 0 (List.length (Disc.check bounded));
  (* ...and so does membership in an equality. *)
  let via_eq =
    Gp.Problem.make ~objective:(P.var "x")
      ~eqs:[ ("xy=4", Gp.Problem.eq (M.mul (M.var "x") (M.var "y")) (M.const 4.0)) ]
      ()
  in
  Alcotest.(check int) "equality bound clean" 0 (List.length (Disc.check via_eq))

let test_discipline_constant_constraints () =
  let prob =
    Gp.Problem.make ~objective:(P.add (P.var "x") (P.of_monomial (M.var_pow "x" (-1.0))))
      ~ineqs:[ ("two<=1", P.const 2.0); ("half<=1", P.const 0.5) ]
      ~eqs:[ ("const-eq", M.const 2.0) ]
      ()
  in
  let ds = Disc.check prob in
  let errs, warns = Dg.count ds in
  (* 2 <= 1 and the constant equality are infeasible (errors); 0.5 <= 1
     is vacuous (warning). *)
  Alcotest.(check int) "errors" 2 errs;
  Alcotest.(check int) "warnings" 1 warns;
  let named n = List.exists (fun d -> d.Dg.constraint_name = Some n) ds in
  Alcotest.(check bool) "flags two<=1" true (named "two<=1");
  Alcotest.(check bool) "flags const-eq" true (named "const-eq")

let test_discipline_provenance () =
  let prob = Gp.Problem.make ~objective:(P.var "x") () in
  match Disc.check ~provenance:"here" prob with
  | [ d ] ->
    Alcotest.(check bool) "provenance threaded" true (d.Dg.provenance = Some "here");
    Alcotest.(check string) "pass" "discipline" d.Dg.pass
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* --- dimensional analysis --- *)

let test_dimexpr_mismatch () =
  let ctx = D.ctx ~provenance:"test" () in
  let energy = D.of_posynomial U.pj (P.var "e") in
  let words = D.of_posynomial U.elements (P.var "w") in
  let sum = D.add ctx ~what:"mix" energy words in
  Alcotest.(check int) "mismatched add flagged" 1 (errors_of (D.diagnostics ctx));
  Alcotest.(check bool) "left unit wins" true (U.equal U.pj (D.unit_of sum));
  (* The underlying posynomial is still the plain sum. *)
  Alcotest.(check bool) "value unaffected" true
    (P.equal (D.posy sum) (P.add (P.var "e") (P.var "w")))

let test_dimexpr_constraints () =
  let ctx = D.ctx () in
  ignore
    (D.le ctx ~name:"bad-bound"
       (D.of_posynomial U.cycles (P.var "t"))
       (D.mconst U.elements 4.0));
  ignore
    (D.eq ctx ~name:"bad-eq" (D.mvar U.pj "e") (D.mconst U.cycles 1.0));
  ignore (D.objective ctx ~expected:U.pj (D.of_posynomial U.cycles (P.var "t")));
  let ds = D.diagnostics ctx in
  Alcotest.(check int) "three findings" 3 (errors_of ds);
  Alcotest.(check bool) "all from units pass" true
    (List.for_all (fun d -> String.equal d.Dg.pass "units") ds);
  Alcotest.(check bool) "constraint named" true
    (List.exists (fun d -> d.Dg.constraint_name = Some "bad-bound") ds)

let test_dimexpr_propagation () =
  let ctx = D.ctx () in
  let eps = D.mconst (U.div U.pj U.elements) 2.0 in
  let traffic = D.of_posynomial U.elements (P.var "v") in
  let term = D.mul_mono eps traffic in
  Alcotest.(check bool) "pJ/elem * elem = pJ" true (U.equal U.pj (D.unit_of term));
  let sq = D.mpow (D.mvar U.elements "s") 2.0 in
  Alcotest.(check bool) "pow propagates" true
    (U.equal (U.mul U.elements U.elements) (D.mono_unit sq));
  ignore (D.sum ctx ~what:"total" U.pj [ term ]);
  Alcotest.(check int) "no spurious diagnostics" 0 (List.length (D.diagnostics ctx))

(* --- certificate --- *)

let amgm =
  Gp.Problem.make
    ~objective:(P.add (P.var "x") (P.var "y"))
    ~ineqs:[ ("xy>=1", P.of_monomial (M.make 1.0 [ ("x", -1.0); ("y", -1.0) ])) ]
    ()

let test_certificate_optimal () =
  let sol = Gp.Solver.solve amgm in
  let cert = Cert.check amgm (Gp.Solver.env sol) in
  Alcotest.(check bool) "no hard failure" false (Cert.hard_failure cert);
  Alcotest.(check (float 1e-9)) "feasible" 0.0 cert.Cert.max_violation;
  Alcotest.(check (float 1e-3)) "objective" 2.0 cert.Cert.objective_value

let test_certificate_violated () =
  (* x = y = 1/2 violates xy >= 1 by a finite margin: warning, not a
     hard failure. *)
  let cert = Cert.check amgm (fun _ -> 0.5) in
  Alcotest.(check bool) "not a hard failure" false (Cert.hard_failure cert);
  Alcotest.(check bool) "violation recorded" true (cert.Cert.max_violation > 1.0);
  let _, warns = Dg.count cert.Cert.diagnostics in
  Alcotest.(check bool) "warned" true (warns >= 1)

let test_certificate_nonfinite () =
  let cert = Cert.check amgm (fun _ -> Float.nan) in
  Alcotest.(check bool) "NaN point is a hard failure" true (Cert.hard_failure cert);
  let cert0 = Cert.check amgm (fun _ -> 0.0) in
  Alcotest.(check bool) "zero point is a hard failure" true (Cert.hard_failure cert0);
  (* x = y = 1e-200: every variable and the objective are finite, but
     x^-1 y^-1 overflows to inf — the constraint alone fails the point. *)
  let tiny = Cert.check amgm (fun _ -> 1e-200) in
  Alcotest.(check bool) "objective finite" true
    (Float.is_finite tiny.Cert.objective_value);
  Alcotest.(check bool) "overflowing constraint is a hard failure" true
    (Cert.hard_failure tiny);
  Alcotest.(check (list (option string))) "the error names the constraint"
    [ Some "xy>=1" ]
    (List.filter_map
       (fun d -> if Dg.is_error d then Some d.Dg.constraint_name else None)
       tiny.Cert.diagnostics)

(* --- lint gate --- *)

let test_gate_modes () =
  let err = Dg.error ~pass:"discipline" "broken" in
  let warn = Dg.warning ~pass:"discipline" "odd" in
  Alcotest.check_raises "enforce raises" (L.Rejected [ err ]) (fun () ->
      L.gate L.Enforce [ warn; err ]);
  L.gate L.Warn [ warn; err ];
  L.gate L.Off [ warn; err ];
  (* Errors-free lists pass the gate in every mode. *)
  L.gate L.Enforce [ warn ]

(* --- formulation lint: hand checks and the zoo property --- *)

let small_conv () =
  Conv.to_nest (Conv.make ~name:"small" ~k:16 ~c:16 ~hw:16 ~rs:3 ())

let arch = Arch.make ~name:"t" ~pes:64 ~registers:64 ~sram_words:4096

let modes = [ F.Fixed arch; F.Codesign { area_budget = 1e6 } ]

let objectives = [ F.Energy; F.Delay; F.Edp ]

let test_formulate_lints_clean () =
  let nest = small_conv () in
  let plan = Perm.enumerate ~max_choices:4 nest in
  List.iter
    (fun mode ->
      List.iter
        (fun objective ->
          List.iter
            (fun choice_vol ->
              List.iter
                (fun placement ->
                  let inst = F.build ~placement ~comm:Archspec.Link.Overlapped tech mode objective plan choice_vol in
                  match F.lint inst with
                  | [] -> ()
                  | ds ->
                    Alcotest.failf "%s: %s" inst.F.provenance (Dg.summary ds))
                plan.Perm.placements)
            plan.Perm.choices)
        objectives)
    modes

let prop_zoo_lints_clean =
  (* Sample (layer, choice, placement, mode, objective) combinations
     across the zoo; every formulated program must pass both analysis
     passes with zero diagnostics. *)
  let sample_nests =
    List.filteri (fun i _ -> i mod 11 = 0) Workload.Zoo.all_layers
    |> List.map Conv.to_nest
  in
  let plans =
    lazy
      (Array.of_list
         (List.map (fun nest -> Perm.enumerate ~max_choices:12 nest) sample_nests))
  in
  let gen =
    QCheck2.Gen.(tup4 (int_bound 1000) (int_bound 1000) (int_bound 1) (int_bound 2))
  in
  QCheck2.Test.make ~name:"zoo formulations lint clean" ~count:25 gen
    (fun (li, ci, mi, oi) ->
      let plans = Lazy.force plans in
      let plan = plans.(li mod Array.length plans) in
      let choices = Array.of_list plan.Perm.choices in
      let choice_vol = choices.(ci mod Array.length choices) in
      let placements = Array.of_list plan.Perm.placements in
      let placement = placements.(ci mod Array.length placements) in
      let mode = List.nth modes mi in
      let objective = List.nth objectives oi in
      let inst = F.build ~placement ~comm:Archspec.Link.Overlapped tech mode objective plan choice_vol in
      F.lint inst = [])

let test_gate_preserves_results () =
  (* The Enforce gate must be invisible on a clean model: same sweep
     outcome as with the analysis off. *)
  let nest = small_conv () in
  let config =
    {
      O.default_config with
      O.max_choices = 4;
      top_choices = 1;
      n_divisors = 1;
      n_pow2 = 1;
      jobs = 1;
    }
  in
  let run lint = O.dataflow ~config:{ config with O.lint } tech arch F.Energy nest in
  match (run L.Enforce, run L.Off) with
  | Ok a, Ok b ->
    Alcotest.(check (float 0.0)) "same best continuous" a.O.best_continuous
      b.O.best_continuous;
    Alcotest.(check int) "same solve count" a.O.choices_solved b.O.choices_solved
  | Error msg, _ | _, Error msg -> Alcotest.failf "optimize failed: %s" msg

let () =
  Alcotest.run "analysis"
    [
      ("units", [ Alcotest.test_case "algebra" `Quick test_units_algebra ]);
      ( "guards",
        [
          Alcotest.test_case "monomial finiteness" `Quick test_monomial_guards;
          Alcotest.test_case "problem make" `Quick test_problem_make_guards;
          Alcotest.test_case "violations non-finite" `Quick test_violations_nonfinite;
        ] );
      ( "discipline",
        [
          Alcotest.test_case "unbounded variables" `Quick test_discipline_unbounded;
          Alcotest.test_case "constant constraints" `Quick test_discipline_constant_constraints;
          Alcotest.test_case "provenance" `Quick test_discipline_provenance;
        ] );
      ( "dimexpr",
        [
          Alcotest.test_case "mismatched add" `Quick test_dimexpr_mismatch;
          Alcotest.test_case "constraint checks" `Quick test_dimexpr_constraints;
          Alcotest.test_case "propagation" `Quick test_dimexpr_propagation;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "optimal point" `Quick test_certificate_optimal;
          Alcotest.test_case "violated point" `Quick test_certificate_violated;
          Alcotest.test_case "non-finite point" `Quick test_certificate_nonfinite;
        ] );
      ("gate", [ Alcotest.test_case "modes" `Quick test_gate_modes ]);
      ( "formulation",
        [
          Alcotest.test_case "small conv lints clean" `Quick test_formulate_lints_clean;
          Alcotest.test_case "gate preserves results" `Slow test_gate_preserves_results;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_zoo_lints_clean ] );
    ]
