type t = { rows : int; cols : int; data : float array }

exception Singular

let singular_threshold = 1e-13

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_rows arr =
  let rows = Array.length arr in
  if rows = 0 then { rows = 0; cols = 0; data = [||] }
  else begin
    let cols = Array.length arr.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> cols then invalid_arg "Mat.of_rows: ragged rows")
      arr;
    init rows cols (fun i j -> arr.(i).(j))
  end

let get m i j = m.data.((i * m.cols) + j)

let data m = m.data

let set m i j v = m.data.((i * m.cols) + j) <- v

let add_to m i j v =
  let k = (i * m.cols) + j in
  m.data.(k) <- m.data.(k) +. v

let copy m = { m with data = Array.copy m.data }

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.add: dimension mismatch";
  { a with data = Array.mapi (fun k v -> v +. b.data.(k)) a.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          add_to c i j (aik *. get b k j)
        done
    done
  done;
  c

let mul_vec m x =
  if m.cols <> Array.length x then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (get m i j *. x.(j))
      done;
      !acc)

let mul_trans_vec m x =
  if m.rows <> Array.length x then invalid_arg "Mat.mul_trans_vec: dimension mismatch";
  let y = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for j = 0 to m.cols - 1 do
        y.(j) <- y.(j) +. (get m i j *. xi)
      done
  done;
  y

(* Gaussian elimination with partial pivoting: step k brings the
   largest remaining entry of column k to the diagonal and stores its
   multipliers at (i, k); a multiplier that rounds to 0.0 skips the
   trailing update.  Every row swap moves whole rows, stored multipliers
   included, so each logical row keeps its own multipliers and
   [lu_solve_factored] (all swaps applied up front, then forward
   substitution with the stored multipliers, then back substitution)
   performs the float operations of an elimination interleaved with the
   right-hand side, in the same order. *)
type lu = { lu_fac : t; lu_piv : int array }

let lu_factor a =
  if a.rows <> a.cols then invalid_arg "Mat.lu_factor: matrix not square";
  let n = a.rows in
  let m = copy a in
  let piv = Array.init n (fun k -> k) in
  for k = 0 to n - 1 do
    let pivot_row = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (get m i k) > Float.abs (get m !pivot_row k) then pivot_row := i
    done;
    piv.(k) <- !pivot_row;
    if !pivot_row <> k then
      for j = 0 to n - 1 do
        let tmp = get m k j in
        set m k j (get m !pivot_row j);
        set m !pivot_row j tmp
      done;
    let pivot = get m k k in
    if Float.abs pivot < singular_threshold then raise Singular;
    for i = k + 1 to n - 1 do
      let factor = get m i k /. pivot in
      set m i k factor;
      if factor <> 0.0 then
        for j = k + 1 to n - 1 do
          add_to m i j (-.factor *. get m k j)
        done
    done
  done;
  { lu_fac = m; lu_piv = piv }

let lu_solve_factored { lu_fac = m; lu_piv = piv } b =
  let n = m.rows in
  if n <> Array.length b then invalid_arg "Mat.lu_solve_factored: dimension mismatch";
  let x = Array.copy b in
  for k = 0 to n - 1 do
    if piv.(k) <> k then begin
      let tmp = x.(k) in
      x.(k) <- x.(piv.(k));
      x.(piv.(k)) <- tmp
    end
  done;
  (* Forward substitution with the stored multipliers, skipping exact
     zeros like the interleaved elimination does. *)
  for k = 0 to n - 1 do
    for i = k + 1 to n - 1 do
      let factor = get m i k in
      if factor <> 0.0 then x.(i) <- x.(i) -. (factor *. x.(k))
    done
  done;
  (* Back substitution. *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get m i j *. x.(j))
    done;
    x.(i) <- !acc /. get m i i
  done;
  x

let lu_solve a b = lu_solve_factored (lu_factor a) b

(* Orthonormal basis of null(A) by modified Gram-Schmidt: orthonormalize
   the rows of A, then complete the basis with coordinate vectors; the
   vectors accepted in the second stage span the nullspace.  Dependent
   rows are dropped by the norm threshold, so rank deficiency is
   handled.  Fully deterministic (threshold comparisons only). *)
let nullspace_basis n rows_arr =
  let basis = ref [] in
  let nbasis = ref 0 in
  let null_cols = ref [] in
  let orthogonalize v =
    (* Two MGS passes for numerical orthogonality. *)
    for _pass = 1 to 2 do
      List.iter
        (fun b ->
          let c = Vec.dot b v in
          if c <> 0.0 then
            for i = 0 to n - 1 do
              v.(i) <- v.(i) -. (c *. b.(i))
            done)
        (List.rev !basis)
    done;
    Vec.norm2 v
  in
  let accept v = basis := v :: !basis; incr nbasis in
  Array.iter
    (fun a ->
      let v = Vec.copy a in
      let nrm = orthogonalize v in
      if nrm > 1e-12 then begin
        for i = 0 to n - 1 do
          v.(i) <- v.(i) /. nrm
        done;
        accept v
      end)
    rows_arr;
  let i = ref 0 in
  while !nbasis < n && !i < n do
    let v = Vec.create n in
    v.(!i) <- 1.0;
    let nrm = orthogonalize v in
    if nrm > 1e-8 then begin
      for j = 0 to n - 1 do
        v.(j) <- v.(j) /. nrm
      done;
      accept v;
      null_cols := v :: !null_cols
    end;
    incr i
  done;
  Array.of_list (List.rev !null_cols)

(* In-place Cholesky over the lower triangle: entry (i, j <= i) is
   replaced by L(i, j); the strict upper triangle is left untouched, so a
   buffer can be refilled and refactored without clearing it.  The
   squareness check makes every [i * n + j] below an in-bounds index of
   [data], so element access is unchecked. *)
let cholesky_in_place a =
  if a.rows <> a.cols then invalid_arg "Mat.cholesky_in_place: matrix not square";
  let n = a.rows in
  let d = a.data in
  for i = 0 to n - 1 do
    let ri = i * n in
    for j = 0 to i do
      let rj = j * n in
      let acc = ref (Array.unsafe_get d (ri + j)) in
      for k = 0 to j - 1 do
        acc := !acc -. (Array.unsafe_get d (ri + k) *. Array.unsafe_get d (rj + k))
      done;
      if i = j then begin
        if !acc <= 0.0 then raise Singular;
        Array.unsafe_set d (ri + j) (sqrt !acc)
      end
      else Array.unsafe_set d (ri + j) (!acc /. Array.unsafe_get d (rj + j))
    done
  done

(* Forward/back substitution reading only the lower triangle of [l],
   overwriting [y] with the solution of [l * transpose l * x = y].
   Unchecked element access, as in [cholesky_in_place]. *)
let cholesky_solve_in_place l y =
  let n = l.rows in
  if l.cols <> n || n <> Array.length y then
    invalid_arg "Mat.cholesky_solve_in_place: dimension mismatch";
  let d = l.data in
  (* Forward substitution with l. *)
  for i = 0 to n - 1 do
    let ri = i * n in
    let acc = ref (Array.unsafe_get y i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get d (ri + j) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i (!acc /. Array.unsafe_get d (ri + i))
  done;
  (* Back substitution with transpose l. *)
  for i = n - 1 downto 0 do
    let acc = ref (Array.unsafe_get y i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get d ((j * n) + i) *. Array.unsafe_get y j)
    done;
    Array.unsafe_set y i (!acc /. Array.unsafe_get d ((i * n) + i))
  done
