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
(* Kernels                                                            *)
(* ------------------------------------------------------------------ *)

(* One phase of a solve (phase II over y, or phase I over (y, s)) under
   one kernel.  A kernel owns only what differs between the two: how the
   phase's functions are evaluated and how its Newton system is solved.
   The barrier method below owns everything else.

   [assemble ~barrier_t y] evaluates every function at [y], writes the
   inequality values f_i(y) into [vis] and the gradient and Hessian of
   the centering objective  barrier_t * f0(y) - sum_i log (-f_i(y))
   into [grad] and [hess], and returns f0(y).  [newton] solves the
   equality-constrained KKT system of the assembled [grad] and [hess]:
   the Newton direction, or [None] when the system is singular at every
   regularization level. *)
type phase = {
  m : int;  (* inequalities *)
  grad : Vec.t;
  hess : Mat.t;
  vis : float array;
  ineq_value : int -> Vec.t -> float;  (* f_i *)
  obj_value : Vec.t -> float;  (* f0 *)
  assemble : barrier_t:float -> Vec.t -> float;
  newton : stats -> initial_reg:float -> Vec.t option;
}

(* [attempt reg] at [initial_reg], then at a hundredfold larger
   regularization after each failure, at most six more times. *)
let regularized ~st ~initial_reg attempt =
  let rec go reg tries =
    match attempt reg with
    | Some _ as step -> step
    | None when tries <= 0 -> None
    | None ->
      st.kkt_regularizations <- st.kkt_regularizations + 1;
      go (reg *. 100.0) (tries - 1)
  in
  go initial_reg 6

(* Newton step keeping A y = const: the KKT system
   [H + reg I, A^T; A, 0] [dy; w] = [-grad; 0], solved densely by LU. *)
let dense_newton ~rows ~hess ~grad st ~initial_reg =
  let n = Vec.dim grad in
  let dim = n + Array.length rows in
  regularized ~st ~initial_reg (fun reg ->
      let kkt = Mat.create dim dim in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Mat.set kkt i j (Mat.get hess i j)
        done;
        Mat.add_to kkt i i reg
      done;
      Array.iteri
        (fun k a ->
          for j = 0 to n - 1 do
            Mat.set kkt (n + k) j a.(j);
            Mat.set kkt j (n + k) a.(j)
          done)
        rows;
      let rhs = Vec.create dim in
      for i = 0 to n - 1 do
        rhs.(i) <- -.grad.(i)
      done;
      match Mat.lu_solve kkt rhs with
      | x -> Some (Vec.slice x 0 n)
      | exception Mat.Singular -> None)

(* --- List kernel: Smooth closures with dense Hessians, dense LU ---- *)

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

let list_phase ~rows (objective : Smooth.t) (ineqs : Smooth.t array) =
  let n = objective.Smooth.dim in
  let grad = Vec.create n and hess = Mat.create n n in
  let vis = Array.make (Array.length ineqs) 0.0 in
  let assemble ~barrier_t y =
    let v0, g0, h0 = objective.Smooth.eval y in
    Array.iteri (fun i g -> grad.(i) <- barrier_t *. g) g0;
    let h = Mat.data hess in
    Array.iteri (fun k h0k -> h.(k) <- barrier_t *. h0k) (Mat.data h0);
    Array.iteri
      (fun k (g : Smooth.t) ->
        let vi, gi, hi = g.Smooth.eval y in
        vis.(k) <- vi;
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
    v0
  in
  {
    m = Array.length ineqs;
    grad;
    hess;
    vis;
    ineq_value = (fun i y -> ineqs.(i).Smooth.value y);
    obj_value = objective.Smooth.value;
    assemble;
    newton = dense_newton ~rows ~hess ~grad;
  }

(* A problem's phase II, and its phase I over the rows [rows1]: the
   objective s, the bound -s + s_floor <= 0 and the images f_i - s. *)
let list_kernel (lo : Batch.lowered) problem =
  let n = lo.Batch.lo_n in
  let lse p =
    let term m =
      let a = Vec.create n in
      List.iter (fun (x, e) -> a.(Hashtbl.find lo.Batch.lo_index x) <- e) (M.exponents m);
      (a, log (M.coeff m))
    in
    Smooth.log_sum_exp n (List.map term (P.terms p))
  in
  let objective = lse (Problem.objective problem) in
  let ineqs = Array.of_list (List.map (fun (_, p) -> lse p) (Problem.ineqs problem)) in
  let phase1 ~rows1 ~s_floor =
    let s_dir = Vec.init (n + 1) (fun i -> if i = n then 1.0 else 0.0) in
    list_phase ~rows:rows1
      (Smooth.linear (n + 1) s_dir 0.0)
      (Array.append
         [| Smooth.linear (n + 1) (Vec.scale (-1.0) s_dir) s_floor |]
         (Array.map (minus_slack n) ineqs))
  in
  (list_phase ~rows:lo.Batch.lo_rows objective ineqs, phase1)

(* --- Compiled kernel: flat buffers over supports, nullspace Cholesky *)

(* The production path evaluates the functions {!Batch.compile} lowers
   once into contiguous sparse exponent rows, into flat buffers sized
   once per phase, writing only each function's support.

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
let compiled_phase ~n ~rows (objective : Batch.fn) (ineqs : Batch.fn array) =
  let nineq = Array.length ineqs in
  let z = Batch.nullspace n rows in
  let q = z.Batch.z_q in
  let max_terms =
    Array.fold_left (fun acc f -> max acc f.Batch.f_nterms) objective.Batch.f_nterms ineqs
  in
  let es = Array.make (max 1 max_terms) 0.0 in
  let grad = Vec.create n and hess = Mat.create n n in
  let vis = Array.make nineq 0.0 in
  let h = Mat.data hess in
  let gi = Array.make n 0.0 and hi = Array.make (n * n) 0.0 in
  let hz = Array.make (max 1 (q * n)) 0.0 in
  (* The reduced Hessian: [hr0] keeps the pristine lower triangle
     (stride q), [hr] is factored in place. *)
  let hr = Mat.create q q and hr0 = Array.make (max 1 (q * q)) 0.0 in
  let u = Vec.create q and u0 = Array.make (max 1 q) 0.0 in
  let dy = Vec.create n in
  let assemble ~barrier_t y =
    Array.fill grad 0 n 0.0;
    Array.fill h 0 (n * n) 0.0;
    let v0 = Batch.eval_into objective ~es ~grad:gi ~hess:hi ~hn:n y in
    let sup0 = objective.Batch.f_support in
    let ns0 = Array.length sup0 in
    for a = 0 to ns0 - 1 do
      let i = Array.unsafe_get sup0 a in
      Array.unsafe_set grad i (barrier_t *. Array.unsafe_get gi i);
      let base = i * n in
      for b = 0 to ns0 - 1 do
        let j = Array.unsafe_get sup0 b in
        Array.unsafe_set h (base + j) (barrier_t *. Array.unsafe_get hi (base + j))
      done
    done;
    for gidx = 0 to nineq - 1 do
      let g = Array.unsafe_get ineqs gidx in
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
          Array.unsafe_set h o
            (Array.unsafe_get h o
            +. ((inv *. Array.unsafe_get hi o) +. (inv *. inv *. gi_i *. Array.unsafe_get gi j))
            )
        done
      done
    done;
    v0
  in
  (* Factor [Z^T H Z + reg I] into [hr]. *)
  let factor reg =
    let hd = Mat.data hr in
    Array.blit hr0 0 hd 0 (q * q);
    for j = 0 to q - 1 do
      let o = (j * q) + j in
      Array.unsafe_set hd o (Array.unsafe_get hd o +. reg)
    done;
    match Mat.cholesky_in_place hr with () -> Some () | exception Mat.Singular -> None
  in
  let newton st ~initial_reg =
    (* The reduced Hessian [z_j . (H z_l)] and RHS [-z_j . grad] are
       fixed for this step: form them once and replay them on every
       regularization retry. *)
    Batch.reduce z ~hess:h ~grad ~hz ~hr:hr0 ~rhs:u0;
    match regularized ~st ~initial_reg factor with
    | Some () ->
      Array.blit u0 0 u 0 q;
      Mat.cholesky_solve_in_place hr u;
      Batch.expand z ~u ~dy;
      Some dy
    | None ->
      (* Cholesky keeps failing even under heavy regularization (an
         indefinite Hessian from numerical noise): fall back once to the
         dense pivoted-LU KKT solve before giving up on the step. *)
      st.cholesky_fallbacks <- st.cholesky_fallbacks + 1;
      dense_newton ~rows ~hess ~grad st ~initial_reg
  in
  {
    m = nineq;
    grad;
    hess;
    vis;
    ineq_value = (fun i y -> Batch.value (Array.unsafe_get ineqs i) ~es y);
    obj_value = (fun y -> Batch.value objective ~es y);
    assemble;
    newton;
  }

(* As [list_kernel], over the compiled functions. *)
let compiled_kernel (lo : Batch.lowered) problem =
  let plan = Batch.compile lo problem in
  let n = lo.Batch.lo_n in
  let phase1 ~rows1 ~s_floor =
    compiled_phase ~n:(n + 1) ~rows:rows1
      (Batch.affine [ (n, 1.0) ] 0.0)
      (Array.append
         [| Batch.affine [ (n, -1.0) ] s_floor |]
         (Array.map (Batch.minus_slack n) plan.Batch.pl_ineqs))
  in
  (compiled_phase ~n ~rows:lo.Batch.lo_rows plan.Batch.pl_objective plan.Batch.pl_ineqs, phase1)

(* ------------------------------------------------------------------ *)
(* The barrier method                                                 *)
(* ------------------------------------------------------------------ *)

(* Centering: minimize  barrier_t * f0(y) - sum_i log (-f_i(y))  with
   the equality rows' values fixed at their values at [y0], which must
   be strictly feasible.  Newton steps with a backtracking (Armijo) line
   search that keeps the iterate strictly feasible; the loop stops when
   the Newton decrement lambda^2 / 2 drops below 1e-10, when no step
   makes progress, or after 80 steps. *)
let centering ph ~st ~initial_reg ~barrier_t y0 =
  let n = Vec.dim y0 in
  let y = Vec.copy y0 and cand = Vec.create n in
  (* The centering objective from f0's value and the inequality values
     in [vis]. *)
  let merit v0 =
    let acc = ref (barrier_t *. v0) in
    for i = 0 to ph.m - 1 do
      acc := !acc -. log (-.ph.vis.(i))
    done;
    !acc
  in
  (* The same at a line-search candidate, [None] outside the strict
     domain.  Evaluation stops at the first inequality value >= 0.  A
     NaN value never triggers the exit ([v >= 0.0] is false for NaN); it
     poisons the sum instead, which then fails the accept test. *)
  let merit_at c =
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < ph.m do
      let v = ph.ineq_value !i c in
      if v >= 0.0 then ok := false
      else begin
        ph.vis.(!i) <- v;
        incr i
      end
    done;
    if !ok then Some (merit (ph.obj_value c)) else None
  in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < 80 do
    incr iter;
    st.newton_iters <- st.newton_iters + 1;
    let v0 = ph.assemble ~barrier_t y in
    match ph.newton st ~initial_reg with
    | None ->
      (* Singular under every factorization: accept the current
         (feasible) point. *)
      converged := true
    | Some dy ->
      let slope = Vec.dot ph.grad dy in
      let lambda2 = -.slope in
      if lambda2 /. 2.0 < 1e-10 then converged := true
      else begin
        for i = 0 to ph.m - 1 do
          if ph.vis.(i) >= 0.0 then
            invalid_arg "Gp.Solver: centering started at an infeasible point"
        done;
        (* Taken from the assembly's values at [y]. *)
        let phi0 = merit v0 in
        let rec search alpha tries =
          tries > 0
          && begin
               for i = 0 to n - 1 do
                 cand.(i) <- (alpha *. dy.(i)) +. y.(i)
               done;
               match merit_at cand with
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

(* The t-schedule: center at t = 1, 20, 400, ... until the duality-gap
   bound m / t drops below [tol], [stop_early] holds, or [max_outer]
   centerings ran.

   [check] is the cooperative deadline hook: called before every outer
   (centering) iteration, it raises {!Deadline} once the caller's budget
   is spent.  Checks sit at outer-iteration boundaries only — a single
   centering runs to completion — keeping the hot path untouched. *)
let barrier ?(stop_early = fun _ -> false) ~check ~st ~phase ~tol ~max_outer ~initial_reg
    ph y0 =
  let tick () =
    match phase with
    | `One -> st.phase1_outer <- st.phase1_outer + 1
    | `Two -> st.phase2_outer <- st.phase2_outer + 1
  in
  let centering = centering ph ~st ~initial_reg in
  let m = ph.m in
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

(* The start point: the least-norm solution y = A^T z of the equality
   rows, with (A A^T + 1e-12 I) z = d.  A warm start overlays a prior
   solution's values on it and projects the result back onto the
   equality manifold, y <- y + A^T z with (A A^T + 1e-12 I) z = d - A y,
   since the warm point satisfied a {e different} problem's equalities.
   Both solves share one factorization; a singular Gram matrix raises
   [Mat.Singular]. *)
let start (lo : Batch.lowered) warm_start =
  let n = lo.Batch.lo_n and rows = lo.Batch.lo_rows and d = lo.Batch.lo_d in
  let p = Array.length rows in
  let y = Vec.create n in
  (* y <- y + A^T z with (A A^T + 1e-12 I) z = rhs *)
  let project =
    if p = 0 then fun _ -> ()
    else begin
      let gram =
        Mat.lu_factor
          (Mat.init p p (fun i j -> Vec.dot rows.(i) rows.(j) +. if i = j then 1e-12 else 0.0))
      in
      fun rhs ->
        let z = Mat.lu_solve_factored gram rhs in
        Array.iteri
          (fun i a ->
            for j = 0 to n - 1 do
              y.(j) <- y.(j) +. (z.(i) *. a.(j))
            done)
          rows
    end
  in
  project d;
  Option.iter
    (fun warm ->
      List.iter
        (fun x ->
          match List.assoc_opt x warm with
          | Some v when Float.is_finite v && v > 0.0 ->
            y.(Hashtbl.find lo.Batch.lo_index x) <- log v
          | _ -> ())
        lo.Batch.lo_vars;
      project (Vec.init p (fun i -> d.(i) -. Vec.dot rows.(i) y)))
    warm_start;
  y

(* Phase I: find a point satisfying the equalities and strictly
   satisfying the inequalities, or decide that none exists.  From [y0],
   which satisfies the equalities, minimize the slack s over (y, s)
   subject to f_i(y) - s <= 0 and s >= -20 (which keeps the problem
   bounded), starting at s = max(0, max_i f_i(y0)) + 1 and stopping as
   soon as s < -0.5. *)
let phase1 ~check ~st ~initial_reg ~max_outer ~(ph2 : phase) ~phase1_of ~rows y0 =
  let n = Vec.dim y0 in
  let strictly_ok y =
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < ph2.m do
      if ph2.ineq_value !i y < -1e-9 then incr i else ok := false
    done;
    !ok
  in
  if strictly_ok y0 then Some y0
  else begin
    let s0 = ref 0.0 in
    for i = 0 to ph2.m - 1 do
      s0 := Float.max !s0 (ph2.ineq_value i y0)
    done;
    let ph1 =
      phase1_of ~rows1:(Array.map (fun a -> Vec.concat a [| 0.0 |]) rows) ~s_floor:(-20.0)
    in
    let y1, _ =
      barrier
        ~stop_early:(fun y -> y.(n) < -0.5)
        ~check ~st ~phase:`One ~tol:1e-6 ~max_outer ~initial_reg ph1
        (Vec.concat y0 [| !s0 +. 1.0 |])
    in
    let y = Vec.slice y1 0 n in
    if strictly_ok y then Some y else None
  end

let run ~tol ~max_outer ~st ~check ?warm_start ~initial_reg ~kernel problem =
  let lo = Batch.lower problem in
  (* Constant equalities reduce to 0 = d: inconsistent unless d ~ 0. *)
  if Array.exists (fun d -> Float.abs d > 1e-9) lo.Batch.lo_dz then infeasible
  else begin
    let y0 = start lo warm_start in
    let ph2, phase1_of =
      (match kernel with `Compiled -> compiled_kernel | `List -> list_kernel) lo problem
    in
    match
      phase1 ~check ~st ~initial_reg ~max_outer ~ph2 ~phase1_of ~rows:lo.Batch.lo_rows y0
    with
    | None ->
      Log.debug (fun m -> m "phase I failed: problem infeasible");
      infeasible
    | Some y_feas ->
      let y_opt, clean =
        barrier ~check ~st ~phase:`Two ~tol ~max_outer ~initial_reg ph2 y_feas
      in
      let envt = Array.map exp y_opt in
      {
        status = (if clean then Optimal else Iteration_limit);
        values = List.mapi (fun i x -> (x, envt.(i))) lo.Batch.lo_vars;
        objective =
          P.eval (fun x -> envt.(Hashtbl.find lo.Batch.lo_index x)) (Problem.objective problem);
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
  (* Any residual numerical failure is reported as infeasibility of this
     program rather than escaping to the caller: the driver treats such
     choices as unusable and moves on. *)
  match run ~tol ~max_outer ~st ~check ?warm_start ~initial_reg ~kernel problem with
  | solution -> solution
  | exception Mat.Singular ->
    Log.debug (fun m -> m "numerical failure: treating the program as infeasible");
    infeasible
  | exception Deadline ->
    st.deadline_hits <- st.deadline_hits + 1;
    Log.debug (fun m -> m "solve deadline exceeded");
    { status = Deadline_exceeded; values = []; objective = nan }
