module Vec = Linalg.Vec
module Mat = Linalg.Mat
module M = Symexpr.Monomial
module P = Symexpr.Posynomial

(* --- compiled problem -------------------------------------------------- *)

type fn = {
  f_nterms : int;
  f_starts : int array;
  f_idx : int array;
  f_coef : float array;
  f_support : int array;
  f_lin_idx : int array;
  f_lin_coef : float array;
  f_lin_const : float;
  f_b : float array;
  f_single : bool;
  f_mirror : bool;
}

type cols = { c_starts : int array; c_idx : int array; c_val : float array }

type basis = { z_n : int; z_q : int; z_sparse : cols; z_full : cols }

type lowered = {
  lo_vars : string list;
  lo_n : int;
  lo_index : (string, int) Hashtbl.t;
  lo_rows : Vec.t array;
  lo_d : float array;
  lo_dz : float array;
}

type plan = { pl_n : int; pl_objective : fn; pl_ineqs : fn array }

(* Distinct indices, ascending. *)
let merged_support lists =
  let tbl = Hashtbl.create 16 in
  List.iter (fun l -> Array.iter (fun i -> Hashtbl.replace tbl i ()) l) lists;
  let s = Array.of_seq (Seq.map fst (Hashtbl.to_seq tbl)) in
  Array.sort compare s;
  s

(* Whether every term [starts.(k) .. starts.(k+1) - 1] uses at most one
   exponent magnitude other than 1 (see [lse_eval_into]). *)
let mirrored starts coef =
  let ok = ref true in
  for k = 0 to Array.length starts - 2 do
    let other = ref 1.0 in
    for p = starts.(k) to starts.(k + 1) - 1 do
      let c = Float.abs coef.(p) in
      if c <> 1.0 then if !other = 1.0 then other := c else if c <> !other then ok := false
    done
  done;
  !ok

(* Terms are lists of (index, exponent) entries, strictly ascending by
   index, so the sparse dot products accumulate in the same order as the
   dense walk of [Smooth.log_sum_exp]; [b] holds the per-term log
   coefficients. *)
let fn_of_sparse n ~b sparse =
  if sparse = [] then invalid_arg "Gp.Batch: empty term list";
  let nterms = List.length sparse in
  let starts = Array.make (nterms + 1) 0 in
  let total = List.fold_left (fun acc entries -> acc + List.length entries) 0 sparse in
  let idx = Array.make total 0 in
  let coef = Array.make total 0.0 in
  List.iteri
    (fun k entries ->
      let pos = ref starts.(k) in
      List.iter
        (fun (i, c) ->
          if i < 0 || i >= n then invalid_arg "Gp.Batch: variable index out of range";
          idx.(!pos) <- i;
          coef.(!pos) <- c;
          incr pos)
        entries;
      starts.(k + 1) <- !pos)
    sparse;
  for k = 0 to nterms - 1 do
    for p = starts.(k) + 1 to starts.(k + 1) - 1 do
      if idx.(p - 1) >= idx.(p) then
        invalid_arg "Gp.Batch: indices not strictly ascending"
    done
  done;
  let row k = Array.init (starts.(k + 1) - starts.(k)) (fun p -> idx.(starts.(k) + p)) in
  let cmax = Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 0.0 coef in
  {
    f_nterms = nterms;
    f_starts = starts;
    f_idx = idx;
    f_coef = coef;
    f_support = merged_support (List.init nterms row);
    f_lin_idx = [||];
    f_lin_coef = [||];
    f_lin_const = 0.0;
    f_b = b;
    f_single = nterms = 1 && Float.is_finite (cmax *. cmax);
    f_mirror = mirrored starts coef;
  }

let fn_of_posynomial n index p =
  let term m =
    List.sort
      (fun (i, _) (j, _) -> compare i j)
      (List.map (fun (x, e) -> (Hashtbl.find index x, e)) (M.exponents m))
  in
  let terms = P.terms p in
  fn_of_sparse n
    ~b:(Array.of_list (List.map (fun m -> log (M.coeff m)) terms))
    (List.map term terms)

let affine entries const =
  let entries = List.sort (fun (i, _) (j, _) -> compare i j) entries in
  let entries = List.filter (fun (_, c) -> c <> 0.0) entries in
  {
    f_nterms = 0;
    f_starts = [| 0 |];
    f_idx = [||];
    f_coef = [||];
    f_support = Array.of_list (List.map fst entries);
    f_lin_idx = Array.of_list (List.map fst entries);
    f_lin_coef = Array.of_list (List.map snd entries);
    f_lin_const = const;
    f_b = [||];
    f_single = false;
    f_mirror = true;
  }

let minus_slack n f =
  {
    f with
    f_lin_idx = Array.append f.f_lin_idx [| n |];
    f_lin_coef = Array.append f.f_lin_coef [| -1.0 |];
    f_support = merged_support [ f.f_support; [| n |] ];
  }

(* Column-compressed view of a nullspace basis: [keep] selects the
   entries stored, in ascending row order per column. *)
let compress ~keep zcols =
  let cols =
    Array.map
      (fun z -> List.filter (fun (_, v) -> keep v) (List.mapi (fun i v -> (i, v)) (Array.to_list z)))
      zcols
  in
  let starts = Array.make (Array.length cols + 1) 0 in
  Array.iteri (fun j col -> starts.(j + 1) <- starts.(j) + List.length col) cols;
  let entries = List.concat (Array.to_list cols) in
  {
    c_starts = starts;
    c_idx = Array.of_list (List.map fst entries);
    c_val = Array.of_list (List.map snd entries);
  }

(* The last two row sets [nullspace] saw on this domain with their
   bases, most recent first.  Every pair of a layer lowers to the same
   equality rows, so a sweep computes its phase-II and phase-I bases
   once each.  [Mat.nullspace_basis] is a pure function of the rows,
   which are compared bit for bit (a zero of the other sign is another
   row set), and a basis is never written after it is built. *)
let recent : (int * Vec.t array * basis) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let nullspace n rows =
  let memo = Domain.DLS.get recent in
  let hit (n', rows', _) =
    n = n' && Array.length rows = Array.length rows' && Array.for_all2 same_bits rows rows'
  in
  match List.find_opt hit memo with
  | Some (_, _, z) -> z
  | None ->
    let zcols = Mat.nullspace_basis n rows in
    let z =
      {
        z_n = n;
        z_q = Array.length zcols;
        z_sparse = compress ~keep:(fun v -> v <> 0.0) zcols;
        z_full = compress ~keep:(fun _ -> true) zcols;
      }
    in
    let keep = match memo with [] -> [] | last :: _ -> [ last ] in
    Domain.DLS.set recent ((n, Array.map Array.copy rows, z) :: keep);
    z

let lower problem =
  let vars = Problem.variables problem in
  let n = List.length vars in
  let index = Hashtbl.create (2 * n) in
  List.iteri (fun i x -> Hashtbl.replace index x i) vars;
  (* Equality rows [a . y = -log c], split into structurally nonzero
     rows (kept, in source order) and all-zero rows (only their
     right-hand sides matter). *)
  let all_rows =
    List.map
      (fun (_, m) ->
        let a = Vec.create n in
        List.iter (fun (x, e) -> a.(Hashtbl.find index x) <- e) (M.exponents m);
        (a, -.log (M.coeff m)))
      (Problem.eqs problem)
  in
  let nonzero, zero = List.partition (fun (a, _) -> Vec.norm_inf a > 0.0) all_rows in
  {
    lo_vars = vars;
    lo_n = n;
    lo_index = index;
    lo_rows = Array.of_list (List.map fst nonzero);
    lo_d = Array.of_list (List.map snd nonzero);
    lo_dz = Array.of_list (List.map snd zero);
  }

let compile lo problem =
  let fn p = fn_of_posynomial lo.lo_n lo.lo_index p in
  {
    pl_n = lo.lo_n;
    pl_objective = fn (Problem.objective problem);
    pl_ineqs = Array.of_list (List.map (fun (_, p) -> fn p) (Problem.ineqs problem));
  }

(* --- flat evaluation --------------------------------------------------- *)

(* Sparse transcriptions of [Smooth.log_sum_exp]: the per-term constant
   comes from [f_b], the Hessian is a flat row-major buffer with
   stride [hn], and array accesses are unchecked.  The sparse row dot
   accumulates in ascending index order like the dense [Vec.dot]; the
   skipped entries contribute exactly [+0.0] or [-0.0], which never
   changes a partial sum that started at [+0.0].  Every other float
   operation and its order is preserved, so results are bit-identical —
   the cases in test/test_compiled.ml enforce this.

   A single term with a finite exponent [e] takes a shortcut with the
   same results: the max is [e], its only weight [exp (e -. e) = 1.0],
   so the value is [e +. log 1.0 = e +. 0.0], the gradient entries are
   [0.0 +. 1.0 *. c = 0.0 +. c], and every Hessian entry of the support
   block is [(0.0 +. c_i *. c_j) +. -.(c_i *. c_j)] or a sum of signed
   zeros, that is [+0.0] — provided each product [c_i *. c_j] is finite,
   which [f_single] records.  A non-finite [e] takes the general path. *)

let row_dot f k y =
  let acc = ref 0.0 in
  let last = Array.unsafe_get f.f_starts (k + 1) - 1 in
  for p = Array.unsafe_get f.f_starts k to last do
    acc :=
      !acc
      +. Array.unsafe_get f.f_coef p
         *. Array.unsafe_get y (Array.unsafe_get f.f_idx p)
  done;
  !acc

let linear_part f y =
  let acc = ref 0.0 in
  for p = 0 to Array.length f.f_lin_idx - 1 do
    acc :=
      !acc
      +. Array.unsafe_get f.f_lin_coef p
         *. Array.unsafe_get y (Array.unsafe_get f.f_lin_idx p)
  done;
  !acc

let lse_value f ~es y =
  for k = 0 to f.f_nterms - 1 do
    Array.unsafe_set es k (row_dot f k y +. Array.unsafe_get f.f_b k)
  done;
  let m = ref neg_infinity in
  for k = 0 to f.f_nterms - 1 do
    m := Float.max !m (Array.unsafe_get es k)
  done;
  let z = ref 0.0 in
  for k = 0 to f.f_nterms - 1 do
    z := !z +. exp (Array.unsafe_get es k -. !m)
  done;
  !m +. log !z

let value f ~es y =
  let v =
    if f.f_nterms = 0 then linear_part f y
    else begin
      let v_lse =
        if f.f_single then begin
          let e = row_dot f 0 y +. Array.unsafe_get f.f_b 0 in
          if Float.is_finite e then e +. 0.0 else lse_value f ~es y
        end
        else lse_value f ~es y
      in
      if Array.length f.f_lin_idx = 0 then v_lse else v_lse +. linear_part f y
    end
  in
  if f.f_lin_const <> 0.0 then v +. f.f_lin_const else v

(* The general log-sum-exp part of [eval_into], with the exponents
   already in [es]; the support of [grad] and [hess] is zeroed.

   Hessian entry (i, j) sums the terms' [(p *. a_i) *. a_j] in term
   order, then adds [-.(g_i *. g_j)].  Both loops walk the upper
   triangle (i <= j: a term's indices ascend, like the support) and
   write each lower entry in the same pass.  Where [f_mirror] holds, the
   lower entry is a copy of the upper one: a term uses at most one
   exponent magnitude other than 1, so either [a_i] or [a_j] is +-1 and
   both products are +-[(p *. a)] for the other, or [|a_i| = |a_j|] and
   both are the same two multiplications up to sign; and
   [g_j *. g_i = g_i *. g_j].  A product that one walk skips, because
   its [p *. a] is zero, is a signed zero in the other, which never
   changes a sum that started at [+0.0].  Elsewhere the lower entry
   accumulates its own products [(p *. a_j) *. a_i]. *)
let lse_eval_into f ~es ~grad ~hess ~hn =
  let support = f.f_support in
  let ns = Array.length support in
  let m = ref neg_infinity in
  for k = 0 to f.f_nterms - 1 do
    m := Float.max !m (Array.unsafe_get es k)
  done;
  let m = !m in
  for k = 0 to f.f_nterms - 1 do
    Array.unsafe_set es k (exp (Array.unsafe_get es k -. m))
  done;
  let z = ref 0.0 in
  for k = 0 to f.f_nterms - 1 do
    z := !z +. Array.unsafe_get es k
  done;
  let z = !z in
  let v = m +. log z in
  for k = 0 to f.f_nterms - 1 do
    Array.unsafe_set es k (Array.unsafe_get es k /. z)
  done;
  for k = 0 to f.f_nterms - 1 do
    let p = Array.unsafe_get es k in
    for q = Array.unsafe_get f.f_starts k to Array.unsafe_get f.f_starts (k + 1) - 1 do
      let i = Array.unsafe_get f.f_idx q in
      Array.unsafe_set grad i
        (Array.unsafe_get grad i +. (p *. Array.unsafe_get f.f_coef q))
    done
  done;
  for k = 0 to f.f_nterms - 1 do
    let p = Array.unsafe_get es k in
    let first = Array.unsafe_get f.f_starts k in
    let last = Array.unsafe_get f.f_starts (k + 1) - 1 in
    for q = first to last do
      let i = Array.unsafe_get f.f_idx q in
      let ai = Array.unsafe_get f.f_coef q in
      let pai = p *. ai in
      if pai <> 0.0 then begin
        let base = i * hn in
        for r = q to last do
          let o = base + Array.unsafe_get f.f_idx r in
          Array.unsafe_set hess o
            (Array.unsafe_get hess o +. (pai *. Array.unsafe_get f.f_coef r))
        done
      end;
      if not f.f_mirror then
        for r = q + 1 to last do
          let paj = p *. Array.unsafe_get f.f_coef r in
          if paj <> 0.0 then begin
            let o = (Array.unsafe_get f.f_idx r * hn) + i in
            Array.unsafe_set hess o (Array.unsafe_get hess o +. (paj *. ai))
          end
        done
    done
  done;
  for a = 0 to ns - 1 do
    let i = Array.unsafe_get support a in
    let gi = Array.unsafe_get grad i in
    let base = i * hn in
    for bj = a to ns - 1 do
      let j = Array.unsafe_get support bj in
      let d = -.(gi *. Array.unsafe_get grad j) in
      let o = base + j in
      let h = Array.unsafe_get hess o +. d in
      Array.unsafe_set hess o h;
      if bj > a then begin
        let o' = (j * hn) + i in
        Array.unsafe_set hess o' (if f.f_mirror then h else Array.unsafe_get hess o' +. d)
      end
    done
  done;
  v

let eval_into f ~es ~grad ~hess ~hn y =
  let support = f.f_support in
  let ns = Array.length support in
  for a = 0 to ns - 1 do
    Array.unsafe_set grad (Array.unsafe_get support a) 0.0
  done;
  for a = 0 to ns - 1 do
    let base = Array.unsafe_get support a * hn in
    for bj = 0 to ns - 1 do
      Array.unsafe_set hess (base + Array.unsafe_get support bj) 0.0
    done
  done;
  let v_lse =
    if f.f_nterms = 0 then 0.0
    else begin
      for k = 0 to f.f_nterms - 1 do
        Array.unsafe_set es k (row_dot f k y +. Array.unsafe_get f.f_b k)
      done;
      let e = Array.unsafe_get es 0 in
      if f.f_single && Float.is_finite e then begin
        for q = 0 to Array.unsafe_get f.f_starts 1 - 1 do
          Array.unsafe_set grad (Array.unsafe_get f.f_idx q) (0.0 +. Array.unsafe_get f.f_coef q)
        done;
        e +. 0.0
      end
      else lse_eval_into f ~es ~grad ~hess ~hn
    end
  in
  for p = 0 to Array.length f.f_lin_idx - 1 do
    let i = Array.unsafe_get f.f_lin_idx p in
    Array.unsafe_set grad i
      (Array.unsafe_get grad i +. Array.unsafe_get f.f_lin_coef p)
  done;
  let v =
    if f.f_nterms = 0 then linear_part f y
    else if Array.length f.f_lin_idx = 0 then v_lse
    else v_lse +. linear_part f y
  in
  if f.f_lin_const <> 0.0 then v +. f.f_lin_const else v

(* --- nullspace products ------------------------------------------------ *)

(* The Newton step's products with the basis [Z], over either view of
   it.  Over [z_full] they are the dense loops — every sum runs over the
   full index range in ascending order from [+0.0].  Over [z_sparse] the
   same sums skip the entries where [z] is an exact (signed) zero: each
   skipped addend is [h *. 0.0] for the other factor [h], a signed zero
   when [h] is finite, and adding a signed zero never changes a sum that
   started at [+0.0].  So the sparse view is bit-identical whenever the
   other factor is finite, which [reduce] and [expand] check before
   choosing it; a non-finite factor takes the full view. *)

(* Whether every [a.(0 .. len - 1)] is finite: the sum of the [x *. 0.0]
   is then a signed zero, and NaN otherwise. *)
let all_finite a len =
  let acc = ref 0.0 in
  for i = 0 to len - 1 do
    acc := !acc +. (Array.unsafe_get a i *. 0.0)
  done;
  !acc = 0.0

(* hz.(j * n + i) <- (H z_j)_i *)
let mul_hz c ~n ~q ~hess ~hz =
  for j = 0 to q - 1 do
    let first = Array.unsafe_get c.c_starts j in
    let last = Array.unsafe_get c.c_starts (j + 1) - 1 in
    let o = j * n in
    for i = 0 to n - 1 do
      let base = i * n in
      let acc = ref 0.0 in
      for p = first to last do
        acc :=
          !acc
          +. (Array.unsafe_get hess (base + Array.unsafe_get c.c_idx p)
             *. Array.unsafe_get c.c_val p)
      done;
      Array.unsafe_set hz (o + i) !acc
    done
  done

(* hr.(j * q + l) <- z_j . hz_l for l <= j *)
let mul_zhz c ~n ~q ~hz ~hr =
  for j = 0 to q - 1 do
    let first = Array.unsafe_get c.c_starts j in
    let last = Array.unsafe_get c.c_starts (j + 1) - 1 in
    for l = 0 to j do
      let o = l * n in
      let acc = ref 0.0 in
      for p = first to last do
        acc :=
          !acc
          +. (Array.unsafe_get c.c_val p *. Array.unsafe_get hz (o + Array.unsafe_get c.c_idx p))
      done;
      Array.unsafe_set hr ((j * q) + l) !acc
    done
  done

(* rhs.(j) <- -(z_j . grad) *)
let mul_zg c ~q ~grad ~rhs =
  for j = 0 to q - 1 do
    let acc = ref 0.0 in
    for p = Array.unsafe_get c.c_starts j to Array.unsafe_get c.c_starts (j + 1) - 1 do
      acc :=
        !acc
        +. (Array.unsafe_get c.c_val p *. Array.unsafe_get grad (Array.unsafe_get c.c_idx p))
    done;
    Array.unsafe_set rhs j (-. !acc)
  done

let reduce z ~hess ~grad ~hz ~hr ~rhs =
  let n = z.z_n and q = z.z_q in
  if Array.length hess < n * n || Array.length grad < n || Array.length hz < q * n
     || Array.length hr < q * q || Array.length rhs < q
  then invalid_arg "Gp.Batch.reduce: buffer too small";
  let view finite = if finite then z.z_sparse else z.z_full in
  mul_hz (view (all_finite hess (n * n))) ~n ~q ~hess ~hz;
  mul_zhz (view (all_finite hz (q * n))) ~n ~q ~hz ~hr;
  mul_zg (view (all_finite grad n)) ~q ~grad ~rhs

let expand z ~u ~dy =
  let n = z.z_n and q = z.z_q in
  if Array.length u < q || Array.length dy < n then
    invalid_arg "Gp.Batch.expand: buffer too small";
  let c = if all_finite u q then z.z_sparse else z.z_full in
  Array.fill dy 0 n 0.0;
  for j = 0 to q - 1 do
    let uj = Array.unsafe_get u j in
    if uj <> 0.0 then
      for p = Array.unsafe_get c.c_starts j to Array.unsafe_get c.c_starts (j + 1) - 1 do
        let i = Array.unsafe_get c.c_idx p in
        Array.unsafe_set dy i (Array.unsafe_get dy i +. (uj *. Array.unsafe_get c.c_val p))
      done
  done
