type t = float array

let create n = Array.make n 0.0

let init = Array.init

let copy = Array.copy

let dim = Array.length

let scale_in_place a x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- a *. x.(i)
  done

let check_same_dim name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name (Array.length x) (Array.length y))

let add x y =
  check_same_dim "add" x y;
  Array.mapi (fun i v -> v +. y.(i)) x

let sub x y =
  check_same_dim "sub" x y;
  Array.mapi (fun i v -> v -. y.(i)) x

(* Kahan compensated summation: the correction term [c] recovers the low-order
   bits lost when adding a small term to a large running sum. *)
let sum x =
  let sum = ref 0.0 and c = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let v = x.(i) -. !c in
    let t = !sum +. v in
    c := t -. !sum -. v;
    sum := t
  done;
  !sum

let dist_l1 x y =
  check_same_dim "dist_l1" x y;
  let sum = ref 0.0 and c = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let v = abs_float (x.(i) -. y.(i)) -. !c in
    let t = !sum +. v in
    c := t -. !sum -. v;
    sum := t
  done;
  !sum

let normalize_l1 x =
  let s = sum x in
  if not (Float.is_finite s) || s = 0.0 then
    invalid_arg "Vec.normalize_l1: zero or non-finite entry sum";
  scale_in_place (1.0 /. s) x


let map2 f x y =
  check_same_dim "map2" x y;
  Array.mapi (fun i v -> f v y.(i)) x

let for_all p x = Array.for_all p x

let pp ppf x =
  Format.fprintf ppf "[|%a|]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") (fun ppf v -> Format.fprintf ppf "%g" v))
    (Array.to_list x)
