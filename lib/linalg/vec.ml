type t = float array

let create n = Array.make n 0.0

let init = Array.init

let dim = Array.length

let copy = Array.copy

let of_list = Array.of_list

let to_list = Array.to_list

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
                   (Array.length x) (Array.length y))

let add x y =
  check_dims "add" x y;
  Array.mapi (fun i xi -> xi +. y.(i)) x

let sub x y =
  check_dims "sub" x y;
  Array.mapi (fun i xi -> xi -. y.(i)) x

let scale a x = Array.map (fun xi -> a *. xi) x

let axpy a x y =
  check_dims "axpy" x y;
  Array.mapi (fun i xi -> (a *. xi) +. y.(i)) x

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun m xi -> Float.max m (Float.abs xi)) 0.0 x

let max_elt x =
  if Array.length x = 0 then invalid_arg "Vec.max_elt: empty vector";
  Array.fold_left Float.max x.(0) x

let concat x y = Array.append x y

let slice x pos len = Array.sub x pos len
