type t = { rows : int; cols : int; data : float array (* row-major *) }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init ~rows ~cols f =
  if rows < 0 || cols < 0 then invalid_arg "Mat.init: negative dimension";
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays a =
  let rows = Array.length a in
  let cols = if rows = 0 then 0 else Array.length a.(0) in
  Array.iter (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged rows") a;
  init ~rows ~cols (fun i j -> a.(i).(j))

let rows m = m.rows
let cols m = m.cols

let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v

let transpose m = init ~rows:m.cols ~cols:m.rows (fun i j -> get m j i)

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let c = create ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          set c i j (get c i j +. (aik *. get b k j))
        done
    done
  done;
  c

let mul_vec a x =
  if a.cols <> Array.length x then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (get a i j *. x.(j))
      done;
      !acc)

let vec_mul x a =
  if a.rows <> Array.length x then invalid_arg "Mat.vec_mul: dimension mismatch";
  Array.init a.cols (fun j ->
      let acc = ref 0.0 in
      for i = 0 to a.rows - 1 do
        acc := !acc +. (x.(i) *. get a i j)
      done;
      !acc)

let row m i = Array.init m.cols (fun j -> get m i j)

let map2 name f a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg ("Mat." ^ name ^ ": dimension mismatch");
  { a with data = Array.mapi (fun k v -> f v b.data.(k)) a.data }

let sub a b = map2 "sub" ( -. ) a b

let scale s a = { a with data = Array.map (fun v -> s *. v) a.data }

let equal ?(tol = 0.0) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> abs_float (x -. y) <= tol) a.data b.data

let pp ppf m =
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<h>";
    for j = 0 to m.cols - 1 do
      Format.fprintf ppf "%10.6f " (get m i j)
    done;
    Format.fprintf ppf "@]@\n"
  done
