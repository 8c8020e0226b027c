module Vec = Linalg.Vec
module Mat = Linalg.Mat
module P = Symexpr.Posynomial
module M = Symexpr.Monomial

type status = Optimal | Infeasible | Iteration_limit | Deadline_exceeded

type solution = { status : status; values : (string * float) list; objective : float }

type kernel = [ `Compiled | `List ]

let lookup sol x =
  match List.assoc_opt x sol.values with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Gp.Solver.lookup: no variable %S in the solution (solution carries: %s)"
         x
         (match sol.values with
         | [] -> "no variables"
         | vs -> String.concat ", " (List.map fst vs)))

let env sol x = lookup sol x

(* ------------------------------------------------------------------ *)
(* Telemetry                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable phase1_outer : int;
  mutable phase2_outer : int;
  mutable newton_iters : int;
  mutable backtracks : int;
  mutable kkt_regularizations : int;
  mutable cholesky_fallbacks : int;
  mutable deadline_hits : int;
  mutable duality_gap : float;
}

let fresh_stats () =
  {
    phase1_outer = 0;
    phase2_outer = 0;
    newton_iters = 0;
    backtracks = 0;
    kkt_regularizations = 0;
    cholesky_fallbacks = 0;
    deadline_hits = 0;
    duality_gap = nan;
  }

let reset_stats st =
  st.phase1_outer <- 0;
  st.phase2_outer <- 0;
  st.newton_iters <- 0;
  st.backtracks <- 0;
  st.kkt_regularizations <- 0;
  st.cholesky_fallbacks <- 0;
  st.deadline_hits <- 0;
  st.duality_gap <- nan

let copy_stats ~into st =
  into.phase1_outer <- st.phase1_outer;
  into.phase2_outer <- st.phase2_outer;
  into.newton_iters <- st.newton_iters;
  into.backtracks <- st.backtracks;
  into.kkt_regularizations <- st.kkt_regularizations;
  into.cholesky_fallbacks <- st.cholesky_fallbacks;
  into.deadline_hits <- st.deadline_hits;
  into.duality_gap <- st.duality_gap

type totals = {
  solves : int;
  t_phase1_outer : int;
  t_phase2_outer : int;
  t_newton_iters : int;
  t_backtracks : int;
  t_kkt_regularizations : int;
  t_cholesky_fallbacks : int;
  t_deadline_hits : int;
  max_duality_gap : float;
}

let zero_totals =
  {
    solves = 0;
    t_phase1_outer = 0;
    t_phase2_outer = 0;
    t_newton_iters = 0;
    t_backtracks = 0;
    t_kkt_regularizations = 0;
    t_cholesky_fallbacks = 0;
    t_deadline_hits = 0;
    max_duality_gap = 0.0;
  }

let accumulate t s =
  {
    solves = t.solves + 1;
    t_phase1_outer = t.t_phase1_outer + s.phase1_outer;
    t_phase2_outer = t.t_phase2_outer + s.phase2_outer;
    t_newton_iters = t.t_newton_iters + s.newton_iters;
    t_backtracks = t.t_backtracks + s.backtracks;
    t_kkt_regularizations = t.t_kkt_regularizations + s.kkt_regularizations;
    t_cholesky_fallbacks = t.t_cholesky_fallbacks + s.cholesky_fallbacks;
    t_deadline_hits = t.t_deadline_hits + s.deadline_hits;
    max_duality_gap =
      (if Float.is_finite s.duality_gap then Float.max t.max_duality_gap s.duality_gap
       else t.max_duality_gap);
  }

let pp_totals ppf t =
  Format.fprintf ppf
    "solves=%d phase1-outer=%d phase2-outer=%d newton=%d backtracks=%d kkt-reg=%d \
     chol-fallback=%d deadline=%d max-gap=%.3g"
    t.solves t.t_phase1_outer t.t_phase2_outer t.t_newton_iters t.t_backtracks
    t.t_kkt_regularizations t.t_cholesky_fallbacks t.t_deadline_hits t.max_duality_gap

let log_src = Logs.Src.create "gp.solver" ~doc:"Geometric-program solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Lowering to log space                                              *)
(* ------------------------------------------------------------------ *)

let compile_posynomial n index p =
  let term m =
    let a = Vec.create n in
    List.iter (fun (x, e) -> a.(Hashtbl.find index x) <- e) (M.exponents m);
    (a, log (M.coeff m))
  in
  Smooth.log_sum_exp n (List.map term (P.terms p))

(* Equality rows: monomial [c * prod t^a = 1] becomes [a . y = -log c]. *)
let equality_rows n index eqs =
  let row (_, m) =
    let a = Vec.create n in
    List.iter (fun (x, e) -> a.(Hashtbl.find index x) <- e) (M.exponents m);
    (a, -.log (M.coeff m))
  in
  List.map row eqs

(* ------------------------------------------------------------------ *)
(* Dense KKT path (shared by the list kernel and the flat kernel's    *)
(* fallback)                                                          *)
(* ------------------------------------------------------------------ *)

(* Newton step keeping A y = const: KKT system
   [H + reg I, A^T; A, 0] [dy; w] = [-grad; 0], solved densely by LU. *)
let solve_kkt_dense ~hess ~grad ~rows n p reg =
  let dim = n + p in
  let kkt = Mat.create dim dim in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set kkt i j (Mat.get hess i j)
    done;
    Mat.add_to kkt i i reg
  done;
  List.iteri
    (fun k (a, _) ->
      for j = 0 to n - 1 do
        Mat.set kkt (n + k) j a.(j);
        Mat.set kkt j (n + k) a.(j)
      done)
    rows;
  let rhs = Vec.create dim in
  for i = 0 to n - 1 do
    rhs.(i) <- -.grad.(i)
  done;
  Vec.slice (Mat.lu_solve kkt rhs) 0 n

let attempt_dense ~st ~initial_reg ~hess ~grad ~rows n p =
  let rec attempt reg tries =
    match solve_kkt_dense ~hess ~grad ~rows n p reg with
    | dy -> Some dy
    | exception Mat.Singular ->
      if tries <= 0 then None
      else begin
        st.kkt_regularizations <- st.kkt_regularizations + 1;
        attempt (reg *. 100.0) (tries - 1)
      end
  in
  attempt initial_reg 6

(* ------------------------------------------------------------------ *)
(* Equality-constrained Newton centering — list kernel                *)
(* ------------------------------------------------------------------ *)

(* Minimize  barrier_t * f0(y) - sum_i log (-f_i(y))  subject to [a] y
   fixed to its value at [y0] (the start must satisfy the equalities and
   be strictly feasible for the inequalities).  This is the pre-compiled
   reference path, kept verbatim as the benchmark baseline. *)
let centering_list ~initial_reg ~st ~barrier_t ~(objective : Smooth.t)
    ~(ineqs : Smooth.t list) ~rows y0 =
  let n = Vec.dim y0 in
  let p = List.length rows in
  let phi y =
    let acc = ref (barrier_t *. objective.Smooth.value y) in
    let ok = ref true in
    List.iter
      (fun (g : Smooth.t) ->
        let v = g.Smooth.value y in
        if v >= 0.0 then ok := false else acc := !acc -. log (-.v))
      ineqs;
    if !ok then Some !acc else None
  in
  let y = ref (Vec.copy y0) in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < 80 do
    incr iter;
    st.newton_iters <- st.newton_iters + 1;
    let v0, g0, h0 = objective.Smooth.eval !y in
    ignore v0;
    let grad = Vec.scale barrier_t g0 in
    let hess = Mat.scale barrier_t h0 in
    List.iter
      (fun (g : Smooth.t) ->
        let vi, gi, hi = g.Smooth.eval !y in
        (* vi < 0 by the line-search invariant *)
        let inv = -1.0 /. vi in
        for i = 0 to n - 1 do
          grad.(i) <- grad.(i) +. (inv *. gi.(i))
        done;
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            Mat.add_to hess i j ((inv *. Mat.get hi i j) +. (inv *. inv *. gi.(i) *. gi.(j)))
          done
        done)
      ineqs;
    match attempt_dense ~st ~initial_reg ~hess ~grad ~rows n p with
    | None ->
      (* The KKT system is numerically singular even with heavy
         regularization: accept the current (feasible) point. *)
      converged := true
    | Some dy ->
    let slope = Vec.dot grad dy in
    let lambda2 = -.slope in
    if lambda2 /. 2.0 < 1e-10 then converged := true
    else begin
      (* Backtracking line search with the strict-feasibility invariant. *)
      let phi0 =
        match phi !y with
        | Some v -> v
        | None -> invalid_arg "Gp.Solver: centering started at an infeasible point"
      in
      let rec search alpha tries =
        if tries <= 0 then None
        else begin
          let cand = Vec.axpy alpha dy !y in
          match phi cand with
          | Some v when v <= phi0 +. (0.25 *. alpha *. slope) -> Some cand
          | _ ->
            st.backtracks <- st.backtracks + 1;
            search (alpha /. 2.0) (tries - 1)
        end
      in
      match search 1.0 60 with
      | Some cand -> y := cand
      | None -> converged := true (* cannot make progress; accept the point *)
    end
  done;
  !y

(* ------------------------------------------------------------------ *)
(* Barrier loop                                                       *)
(* ------------------------------------------------------------------ *)

(* [check] is the cooperative deadline hook: called before every outer
   (centering) iteration, it raises {!Deadline} once the caller's budget
   is spent.  Checks sit at outer-iteration boundaries only — a single
   centering runs to completion — keeping the hot path untouched.

   The loop is written against an abstract [centering] closure (and the
   inequality count [m]) so both kernels run through the identical
   control flow: same schedule, same stop conditions, same stats
   ticks. *)
let barrier ?(stop_early = fun _ -> false) ~check ~st ~phase ~tol ~max_outer ~m
    ~centering y0 =
  let tick () =
    match phase with
    | `One -> st.phase1_outer <- st.phase1_outer + 1
    | `Two -> st.phase2_outer <- st.phase2_outer + 1
  in
  if m = 0 then begin
    check ();
    if phase = `Two then st.duality_gap <- 0.0;
    (centering ~barrier_t:1.0 y0, true)
  end
  else begin
    let y = ref y0 in
    let t = ref 1.0 in
    let mu = 20.0 in
    let outer = ref 0 in
    let done_ = ref false in
    let clean = ref false in
    while not !done_ do
      incr outer;
      tick ();
      check ();
      y := centering ~barrier_t:!t !y;
      if stop_early !y then begin
        done_ := true;
        clean := true
      end
      else if float_of_int m /. !t < tol then begin
        done_ := true;
        clean := true
      end
      else if !outer >= max_outer then done_ := true
      else t := !t *. mu
    done;
    if phase = `Two then st.duality_gap <- float_of_int m /. !t;
    (!y, !clean)
  end

let infeasible = { status = Infeasible; values = []; objective = nan }

(* ------------------------------------------------------------------ *)
(* List kernel: phase I and driver                                    *)
(* ------------------------------------------------------------------ *)

(* G(y, s) = f(y) - s over n + 1 variables. *)
let minus_slack n (f : Smooth.t) =
  let base = Smooth.extend f 1 in
  let value y = base.Smooth.value y -. y.(n) in
  let eval y =
    let v, g, h = base.Smooth.eval y in
    g.(n) <- g.(n) -. 1.0;
    (v -. y.(n), g, h)
  in
  { Smooth.dim = n + 1; eval; value }

(* Find a point satisfying the equalities and strictly satisfying the
   inequalities, or decide that none exists. *)
let phase1_list ~check ~initial_reg ~st ~tol ~max_outer n (ineqs : Smooth.t list) rows
    y0 =
  let strictly_ok y =
    List.for_all (fun (g : Smooth.t) -> g.Smooth.value y < -1e-9) ineqs
  in
  if strictly_ok y0 then Some y0
  else begin
    let n1 = n + 1 in
    let s_dir = Vec.init n1 (fun i -> if i = n then 1.0 else 0.0) in
    let objective = Smooth.linear n1 s_dir 0.0 in
    let g_ineqs = List.map (minus_slack n) ineqs in
    (* Keep s bounded below so the phase-I problem is bounded. *)
    let lower = Smooth.linear n1 (Vec.scale (-1.0) s_dir) (-20.0) in
    let rows1 = List.map (fun (a, d) -> (Vec.concat a [| 0.0 |], d)) rows in
    let s0 =
      List.fold_left (fun acc (g : Smooth.t) -> Float.max acc (g.Smooth.value y0)) 0.0
        ineqs
      +. 1.0
    in
    let start = Vec.concat y0 [| s0 |] in
    let stop_early y = y.(n) < -0.5 in
    let all_ineqs = lower :: g_ineqs in
    let y1, _ =
      barrier ~stop_early ~check ~st ~phase:`One ~tol ~max_outer
        ~m:(List.length all_ineqs)
        ~centering:(fun ~barrier_t y ->
          centering_list ~initial_reg ~st ~barrier_t ~objective ~ineqs:all_ineqs
            ~rows:rows1 y)
        start
    in
    let y = Vec.slice y1 0 n in
    if strictly_ok y then Some y else None
  end

let least_norm_start n rows =
  match rows with
  | [] -> Vec.create n
  | _ ->
    (* y0 = A^T z with (A A^T + eps I) z = d: minimum-norm solution of the
       (assumed full-rank) equality system, regularized for safety. *)
    let p = List.length rows in
    let arr = Array.of_list rows in
    let gram =
      Mat.init p p (fun i j ->
          Vec.dot (fst arr.(i)) (fst arr.(j)) +. if i = j then 1e-12 else 0.0)
    in
    let d = Vec.init p (fun i -> snd arr.(i)) in
    let z = Mat.lu_solve gram d in
    let y = Vec.create n in
    Array.iteri
      (fun i (a, _) ->
        for j = 0 to n - 1 do
          y.(j) <- y.(j) +. (z.(i) *. a.(j))
        done)
      arr;
    y

(* Log-space start seeded from a prior solution of a structurally close
   problem: overlay the warm values on the least-norm equality solution,
   then project back onto the equality manifold ([y <- y + A^T z] with
   [(A A^T + eps I) z = d - A y]), since the warm point satisfied a
   {e different} problem's equalities. *)
let warm_point n index vars rows warm =
  let y = least_norm_start n rows in
  List.iter
    (fun x ->
      match List.assoc_opt x warm with
      | Some v when Float.is_finite v && v > 0.0 -> y.(Hashtbl.find index x) <- log v
      | _ -> ())
    vars;
  match rows with
  | [] -> y
  | _ ->
    (try
       let p = List.length rows in
       let arr = Array.of_list rows in
       let gram =
         Mat.init p p (fun i j ->
             Vec.dot (fst arr.(i)) (fst arr.(j)) +. if i = j then 1e-12 else 0.0)
       in
       let d = Vec.init p (fun i -> snd arr.(i) -. Vec.dot (fst arr.(i)) y) in
       let z = Mat.lu_solve gram d in
       Array.iteri
         (fun i (a, _) ->
           for j = 0 to n - 1 do
             y.(j) <- y.(j) +. (z.(i) *. a.(j))
           done)
         arr;
       y
     with Mat.Singular -> least_norm_start n rows)

let solve_list ~tol ~max_outer ~st ~check ?warm_start ~initial_reg problem =
  let vars = Problem.variables problem in
  let n = List.length vars in
  let index = Hashtbl.create (2 * n) in
  List.iteri (fun i x -> Hashtbl.replace index x i) vars;
  let rows0 = equality_rows n index (Problem.eqs problem) in
  (* Constant equalities reduce to 0 = d: inconsistent unless d ~ 0. *)
  let inconsistent = ref false in
  let rows =
    List.filter
      (fun (a, d) ->
        if Vec.norm_inf a > 0.0 then true
        else begin
          if Float.abs d > 1e-9 then inconsistent := true;
          false
        end)
      rows0
  in
  if !inconsistent then infeasible
  else begin
    let y0 =
      match warm_start with
      | None -> least_norm_start n rows
      | Some warm -> warm_point n index vars rows warm
    in
    let objective = compile_posynomial n index (Problem.objective problem) in
    let ineqs =
      List.map (fun (_, p) -> compile_posynomial n index p) (Problem.ineqs problem)
    in
    match phase1_list ~check ~initial_reg ~st ~tol:1e-6 ~max_outer n ineqs rows y0 with
    | None ->
      Log.debug (fun m -> m "phase I failed: problem infeasible");
      infeasible
    | Some y_feas ->
      let y_opt, clean =
        barrier ~check ~st ~phase:`Two ~tol ~max_outer ~m:(List.length ineqs)
          ~centering:(fun ~barrier_t y ->
            centering_list ~initial_reg ~st ~barrier_t ~objective ~ineqs ~rows y)
          y_feas
      in
      let envt = Array.map exp y_opt in
      {
        status = (if clean then Optimal else Iteration_limit);
        values = List.mapi (fun i x -> (x, envt.(i))) vars;
        objective =
          P.eval (fun x -> envt.(Hashtbl.find index x)) (Problem.objective problem);
      }
  end

(* ------------------------------------------------------------------ *)
(* Flat kernel (the default, [`Compiled])                             *)
(* ------------------------------------------------------------------ *)

(* The production path runs the list kernel's algorithm — same barrier
   schedule, same stop rules, same line search, same stats ticks — over
   the compiled form {!Batch} builds: [Batch.compile] lowers the problem
   once into contiguous sparse exponent rows with their log-coefficients,
   the orthonormal nullspace bases of its equality rows and the factored
   least-norm Gram system.  Hot buffers are flat unchecked float arrays
   sized once per solve.

   Each Newton step solves the equality-constrained KKT system in the
   nullspace basis [Z] of the equality rows,

     (Z^T H Z + reg I) u = Z^T (-grad),   dy = Z u,

   by Cholesky.  [A dy = (A Z) u ~ 0] holds to machine precision by
   construction, unlike a range-space (Schur-complement) elimination,
   which amplifies roundoff by ||H^-1|| ~ barrier_t / reg along the
   curvature-free log-linear directions every GP formulation has.  When
   Cholesky fails at every regularization level the step falls back
   once to the list kernel's dense pivoted-LU KKT solve.  The products
   with [Z] ({!Batch.reduce}, {!Batch.expand}) skip its exact zeros
   wherever that leaves every bit of the dense products unchanged.

   The evaluations are bit-identical to the list kernel's
   ({!Batch.eval_into} against [Smooth.log_sum_exp]); Newton directions
   differ in low-order bits because the factorization differs. *)

(* The function set of one phase. *)
type bset = {
  bs_n : int;
  bs_obj : Batch.fn;
  bs_ineqs : Batch.fn array;
  bs_zbasis : Batch.basis;
  bs_rows : Vec.t array;  (* equality rows, for the dense KKT fallback *)
}

(* Per-phase workspace, allocated per solve (never shared across
   concurrent solves). *)
type bws = {
  bw_y : float array;
  bw_cand : float array;
  bw_grad : float array;
  bw_hess : float array;  (* n * n, stride n *)
  bw_gi : float array;
  bw_hi : float array;  (* n * n, stride n *)
  bw_dy : float array;
  bw_es : float array;
  bw_vis : float array;  (* per-inequality values at the current iterate *)
  bw_hz : float array;  (* H Z, column j at j * n *)
  bw_hr : Mat.t;
  bw_hr0 : float array;  (* pristine reduced Hessian, lower triangle, stride q *)
  bw_u : Vec.t;
  bw_u0 : float array;  (* pristine reduced RHS *)
}

let make_bws ~n ~q ~max_terms ~nineqs =
  {
    bw_y = Array.make n 0.0;
    bw_cand = Array.make n 0.0;
    bw_grad = Array.make n 0.0;
    bw_hess = Array.make (n * n) 0.0;
    bw_gi = Array.make n 0.0;
    bw_hi = Array.make (n * n) 0.0;
    bw_dy = Array.make n 0.0;
    bw_es = Array.make (max 1 max_terms) 0.0;
    bw_vis = Array.make (max 1 nineqs) 0.0;
    bw_hz = Array.make (max 1 (q * n)) 0.0;
    bw_hr = Mat.create q q;
    bw_hr0 = Array.make (max 1 (q * q)) 0.0;
    bw_u = Vec.create q;
    bw_u0 = Array.make (max 1 q) 0.0;
  }

(* Factor [Z^T H Z + reg I] into [ws.bw_hr], raising [reg] a
   hundredfold after each failure, at most [tries] times; [false] when
   every level fails. *)
let rec factor_reduced ~ws ~st ~q reg tries =
  let hd = Mat.data ws.bw_hr in
  Array.blit ws.bw_hr0 0 hd 0 (q * q);
  for j = 0 to q - 1 do
    let o = (j * q) + j in
    Array.unsafe_set hd o (Array.unsafe_get hd o +. reg)
  done;
  match Mat.cholesky_in_place ws.bw_hr with
  | () -> true
  | exception Mat.Singular ->
    if tries <= 0 then false
    else begin
      st.kkt_regularizations <- st.kkt_regularizations + 1;
      factor_reduced ~ws ~st ~q (reg *. 100.0) (tries - 1)
    end

(* Same minimization as [centering_list], over the compiled functions
   and the structured KKT solve described above. *)
let centering_flat ~ws ~fset ~initial_reg ~st ~barrier_t y0 =
  let n = fset.bs_n in
  let nineq = Array.length fset.bs_ineqs in
  let zbasis = fset.bs_zbasis in
  let q = zbasis.Batch.z_q in
  let grad = ws.bw_grad in
  let hess = ws.bw_hess in
  let gi = ws.bw_gi in
  let hi = ws.bw_hi in
  let es = ws.bw_es in
  let vis = ws.bw_vis in
  let y = ws.bw_y in
  if y != y0 then Array.blit y0 0 y 0 n;
  (* Line-search merit value at a candidate, [None] outside the strict
     domain.  Evaluation stops at the first inequality value >= 0 (the
     list kernel evaluates them all; the skipped work is pure).  A NaN
     value never triggers the exit ([v >= 0.0] is false for NaN); it
     poisons the sum instead, which then fails the accept test. *)
  let phi_cand cand =
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < nineq do
      let f = Array.unsafe_get fset.bs_ineqs !i in
      let v = Batch.value f ~es cand in
      if v >= 0.0 then ok := false
      else begin
        Array.unsafe_set vis !i v;
        incr i
      end
    done;
    if not !ok then None
    else begin
      let o = fset.bs_obj in
      let acc = ref (barrier_t *. Batch.value o ~es cand) in
      for j = 0 to nineq - 1 do
        acc := !acc -. log (-.Array.unsafe_get vis j)
      done;
      Some !acc
    end
  in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < 80 do
    incr iter;
    st.newton_iters <- st.newton_iters + 1;
    Array.fill grad 0 n 0.0;
    Array.fill hess 0 (n * n) 0.0;
    let o = fset.bs_obj in
    let v0 = Batch.eval_into o ~es ~grad:gi ~hess:hi ~hn:n y in
    let sup0 = o.Batch.f_support in
    let ns0 = Array.length sup0 in
    for a = 0 to ns0 - 1 do
      let i = Array.unsafe_get sup0 a in
      Array.unsafe_set grad i (barrier_t *. Array.unsafe_get gi i);
      let base = i * n in
      for b = 0 to ns0 - 1 do
        let j = Array.unsafe_get sup0 b in
        Array.unsafe_set hess (base + j) (barrier_t *. Array.unsafe_get hi (base + j))
      done
    done;
    for gidx = 0 to nineq - 1 do
      let g = Array.unsafe_get fset.bs_ineqs gidx in
      let vi = Batch.eval_into g ~es ~grad:gi ~hess:hi ~hn:n y in
      Array.unsafe_set vis gidx vi;
      (* vi < 0 by the line-search invariant *)
      let inv = -1.0 /. vi in
      let sup = g.Batch.f_support in
      let ns = Array.length sup in
      for a = 0 to ns - 1 do
        let i = Array.unsafe_get sup a in
        Array.unsafe_set grad i (Array.unsafe_get grad i +. (inv *. Array.unsafe_get gi i))
      done;
      for a = 0 to ns - 1 do
        let i = Array.unsafe_get sup a in
        let gi_i = Array.unsafe_get gi i in
        let base = i * n in
        for b = 0 to ns - 1 do
          let j = Array.unsafe_get sup b in
          let o = base + j in
          Array.unsafe_set hess o
            (Array.unsafe_get hess o
            +. ((inv *. Array.unsafe_get hi o) +. (inv *. inv *. gi_i *. Array.unsafe_get gi j))
            )
        done
      done
    done;
    (* Structured KKT solve in the nullspace basis.  The reduced Hessian
       [z_j . (H z_l)] and RHS [-z_j . grad] are fixed for this step:
       form them once and replay them on every regularization retry. *)
    Batch.reduce zbasis ~hess ~grad ~hz:ws.bw_hz ~hr:ws.bw_hr0 ~rhs:ws.bw_u0;
    let dy =
      if factor_reduced ~ws ~st ~q initial_reg 6 then begin
        let u = ws.bw_u in
        Array.blit ws.bw_u0 0 u 0 q;
        Mat.cholesky_solve_in_place ws.bw_hr u;
        Batch.expand zbasis ~u ~dy:ws.bw_dy;
        Some ws.bw_dy
      end
      else begin
        (* Cholesky keeps failing even under heavy regularization (an
           indefinite Hessian from numerical noise): fall back once to
           the dense pivoted-LU KKT path before giving up on the step. *)
        st.cholesky_fallbacks <- st.cholesky_fallbacks + 1;
        let p = Array.length fset.bs_rows in
        let hess_m = Mat.init n n (fun i j -> hess.((i * n) + j)) in
        let rows = Array.to_list (Array.map (fun a -> (a, 0.0)) fset.bs_rows) in
        attempt_dense ~st ~initial_reg ~hess:hess_m ~grad ~rows n p
      end
    in
    match dy with
    | None ->
      (* Singular under every factorization: accept the current
         (feasible) point. *)
      converged := true
    | Some dy ->
      let slope =
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc := !acc +. (Array.unsafe_get grad i *. Array.unsafe_get dy i)
        done;
        !acc
      in
      let lambda2 = -.slope in
      if lambda2 /. 2.0 < 1e-10 then converged := true
      else begin
        (* Merit value at the current iterate, from the values the
           assembly above just computed. *)
        let phi0 =
          let ok = ref true in
          for j = 0 to nineq - 1 do
            if vis.(j) >= 0.0 then ok := false
          done;
          if not !ok then
            invalid_arg "Gp.Solver: centering started at an infeasible point"
          else begin
            let acc = ref (barrier_t *. v0) in
            for j = 0 to nineq - 1 do
              acc := !acc -. log (-.vis.(j))
            done;
            !acc
          end
        in
        let cand = ws.bw_cand in
        let rec search alpha tries =
          if tries <= 0 then false
          else begin
            for i = 0 to n - 1 do
              Array.unsafe_set cand i
                ((alpha *. Array.unsafe_get dy i) +. Array.unsafe_get y i)
            done;
            match phi_cand cand with
            | Some v when v <= phi0 +. (0.25 *. alpha *. slope) -> true
            | _ ->
              st.backtracks <- st.backtracks + 1;
              search (alpha /. 2.0) (tries - 1)
          end
        in
        if search 1.0 60 then Array.blit cand 0 y 0 n
        else converged := true (* cannot make progress; accept the point *)
      end
  done;
  y

(* Function sets: phase II over n variables, phase I over n+1 with the
   slack.  The phase-I inequalities share their phase-II counterparts'
   coefficients. *)
let bset_phase2 (plan : Batch.plan) =
  {
    bs_n = plan.Batch.pl_n;
    bs_obj = plan.Batch.pl_objective;
    bs_ineqs = plan.Batch.pl_ineqs;
    bs_zbasis = plan.Batch.pl_zbasis;
    bs_rows = plan.Batch.pl_rows;
  }

let bset_phase1 (plan : Batch.plan) =
  {
    bs_n = plan.Batch.pl_n + 1;
    bs_obj = plan.Batch.pl_objective1;
    bs_ineqs = Array.append [| plan.Batch.pl_lower1 |] plan.Batch.pl_ineqs1;
    bs_zbasis = plan.Batch.pl_zbasis1;
    bs_rows = plan.Batch.pl_rows1;
  }

(* [phase1_list] over the compiled function sets. *)
let phase1_flat ~check ~st ~max_outer ~initial_reg ~(plan : Batch.plan) ~fset2
    ~(ws2 : bws) y0 =
  let n = plan.Batch.pl_n in
  let nineq = Array.length fset2.bs_ineqs in
  let strictly_ok y =
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < nineq do
      let f = fset2.bs_ineqs.(!i) in
      if Batch.value f ~es:ws2.bw_es y < -1e-9 then incr i
      else ok := false
    done;
    !ok
  in
  if strictly_ok y0 then Some y0
  else begin
    let fset1 = bset_phase1 plan in
    let ws1 =
      make_bws ~n:(n + 1)
        ~q:plan.Batch.pl_zbasis1.Batch.z_q
        ~max_terms:plan.Batch.pl_max_terms
        ~nineqs:(1 + nineq)
    in
    let s0 =
      let acc = ref 0.0 in
      for i = 0 to nineq - 1 do
        let f = fset2.bs_ineqs.(i) in
        acc := Float.max !acc (Batch.value f ~es:ws2.bw_es y0)
      done;
      !acc +. 1.0
    in
    let start = Vec.concat y0 [| s0 |] in
    let stop_early y = y.(n) < -0.5 in
    let y1, _ =
      barrier ~stop_early ~check ~st ~phase:`One ~tol:1e-6 ~max_outer ~m:(1 + nineq)
        ~centering:(fun ~barrier_t y ->
          centering_flat ~ws:ws1 ~fset:fset1 ~initial_reg ~st ~barrier_t y)
        start
    in
    let y = Vec.slice y1 0 n in
    if strictly_ok y then Some y else None
  end

let solve_flat ~tol ~max_outer ~st ~check ?warm_start ~initial_reg problem =
  let plan = Batch.compile problem in
  let n = plan.Batch.pl_n in
  let p = Array.length plan.Batch.pl_rows in
  (* Constant equalities reduce to 0 = d: inconsistent unless d ~ 0. *)
  if Array.exists (fun d -> Float.abs d > 1e-9) plan.Batch.pl_dz then infeasible
  else begin
    let overlay_rows y z =
      Array.iteri
        (fun i a ->
          for j = 0 to n - 1 do
            y.(j) <- y.(j) +. (z.(i) *. a.(j))
          done)
        plan.Batch.pl_rows
    in
    (* [least_norm_start] / [warm_point] over the Gram system the plan
       factored once ([lu_solve_factored] is bit-identical to
       [lu_solve]); a singular Gram raises where [lu_solve] would. *)
    let least_norm () =
      match plan.Batch.pl_gram with
      | Batch.No_rows -> Vec.create n
      | Batch.Gram_singular -> raise Mat.Singular
      | Batch.Factored lu ->
        let z = Mat.lu_solve_factored lu plan.Batch.pl_d in
        let y = Vec.create n in
        overlay_rows y z;
        y
    in
    let y0 =
      match warm_start with
      | None -> least_norm ()
      | Some warm ->
        let y = least_norm () in
        List.iter
          (fun x ->
            match List.assoc_opt x warm with
            | Some v when Float.is_finite v && v > 0.0 ->
              y.(Hashtbl.find plan.Batch.pl_index x) <- log v
            | _ -> ())
          plan.Batch.pl_vars;
        (match plan.Batch.pl_gram with
        | Batch.No_rows | Batch.Gram_singular -> y
        | Batch.Factored lu ->
          let d =
            Vec.init p (fun i -> plan.Batch.pl_d.(i) -. Vec.dot plan.Batch.pl_rows.(i) y)
          in
          let z = Mat.lu_solve_factored lu d in
          overlay_rows y z;
          y)
    in
    let fset2 = bset_phase2 plan in
    let ws2 =
      make_bws ~n
        ~q:plan.Batch.pl_zbasis.Batch.z_q
        ~max_terms:plan.Batch.pl_max_terms
        ~nineqs:(Array.length fset2.bs_ineqs)
    in
    match phase1_flat ~check ~st ~max_outer ~initial_reg ~plan ~fset2 ~ws2 y0 with
    | None ->
      Log.debug (fun m -> m "phase I failed: problem infeasible");
      infeasible
    | Some y_feas ->
      let y_opt, clean =
        barrier ~check ~st ~phase:`Two ~tol ~max_outer ~m:(Array.length fset2.bs_ineqs)
          ~centering:(fun ~barrier_t y ->
            centering_flat ~ws:ws2 ~fset:fset2 ~initial_reg ~st ~barrier_t y)
          y_feas
      in
      let envt = Array.map exp y_opt in
      {
        status = (if clean then Optimal else Iteration_limit);
        values = List.mapi (fun i x -> (x, envt.(i))) plan.Batch.pl_vars;
        objective =
          P.eval
            (fun x -> envt.(Hashtbl.find plan.Batch.pl_index x))
            (Problem.objective problem);
      }
  end

(* ------------------------------------------------------------------ *)
(* Public entry point                                                 *)
(* ------------------------------------------------------------------ *)

(* Internal deadline signal; never escapes [solve]. *)
exception Deadline

let now_ns () = Unix.gettimeofday () *. 1e9

let solve ?(tol = 1e-8) ?(max_outer = 60) ?stats ?warm_start ?(kernel = `Compiled)
    ?deadline_ns ?(initial_reg = 1e-9) problem =
  let st = match stats with Some st -> st | None -> fresh_stats () in
  reset_stats st;
  (* Cooperative deadline: checked at outer-iteration boundaries (see
     [barrier]).  [deadline_ns <= 0] trips at the very first check, which
     the fault-injection "stall" path relies on for determinism. *)
  let check =
    match deadline_ns with
    | None -> fun () -> ()
    | Some budget_ns ->
      let start = now_ns () in
      fun () -> if now_ns () -. start >= budget_ns then raise Deadline
  in
  let run =
    match kernel with `Compiled -> solve_flat | `List -> solve_list
  in
  (* Any residual numerical failure is reported as infeasibility of this
     program rather than escaping to the caller: the driver treats such
     choices as unusable and moves on. *)
  match run ~tol ~max_outer ~st ~check ?warm_start ~initial_reg problem with
  | solution -> solution
  | exception Mat.Singular ->
    Log.debug (fun m -> m "numerical failure: treating the program as infeasible");
    infeasible
  | exception Deadline ->
    st.deadline_hits <- st.deadline_hits + 1;
    Log.debug (fun m -> m "solve deadline exceeded");
    { status = Deadline_exceeded; values = []; objective = nan }
