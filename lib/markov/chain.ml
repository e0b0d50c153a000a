type t = { tpm : Sparse.Csr.t }

exception Not_stochastic of string

(* Checks [m] and rescales every row of [values] (the caller's copy of
   [m]'s values, or [m]'s own) by the inverse of its compensated row sum. *)
let normalize ~tol m values =
  if Sparse.Csr.rows m <> Sparse.Csr.cols m then
    raise (Not_stochastic (Printf.sprintf "matrix is %dx%d, not square" (Sparse.Csr.rows m) (Sparse.Csr.cols m)));
  let row_ptr = m.Sparse.Csr.row_ptr and col_idx = m.Sparse.Csr.col_idx in
  let n = Sparse.Csr.rows m in
  for i = 0 to n - 1 do
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let v = values.(k) in
      if v < 0.0 || not (Float.is_finite v) then
        raise (Not_stochastic (Printf.sprintf "entry (%d,%d) = %g is not a probability" i col_idx.(k) v))
    done
  done;
  (* exact renormalization by the compensated row sum [Sparse.Csr.row_sums]
     computes: iterative solvers assume row sums of exactly 1 *)
  for i = 0 to n - 1 do
    let acc = ref 0.0 and c = ref 0.0 in
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let v = values.(k) -. !c in
      let t = !acc +. v in
      c := t -. !acc -. v;
      acc := t
    done;
    let s = !acc in
    if abs_float (s -. 1.0) > tol then
      raise (Not_stochastic (Printf.sprintf "row %d sums to %.12g" i s));
    let inv = 1.0 /. s in
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      values.(k) <- values.(k) *. inv
    done
  done

let of_csr ?(tol = 1e-9) m =
  let values = Array.copy m.Sparse.Csr.values in
  normalize ~tol m values;
  { tpm = Sparse.Csr.refill m values }

let of_csr_in_place ?(tol = 1e-9) m =
  normalize ~tol m m.Sparse.Csr.values;
  { tpm = m }

let of_dense ?tol m = of_csr ?tol (Sparse.Csr.of_dense m)

let n_states c = Sparse.Csr.rows c.tpm

let tpm c = c.tpm

let step ?pool c pi = Sparse.Csr.vec_mul ?pool pi c.tpm

let step_into ?pool c pi out = Sparse.Csr.vec_mul_into ?pool pi c.tpm out

let residual ?pool ?scratch c pi =
  let next =
    match scratch with
    | Some y ->
        step_into ?pool c pi y;
        y
    | None -> step ?pool c pi
  in
  Linalg.Vec.dist_l1 next pi

let uniform c =
  let n = n_states c in
  Array.make n (1.0 /. float_of_int n)

let transition_prob c i j = Sparse.Csr.get c.tpm i j

let reachable_all m start =
  let n = Sparse.Csr.rows m in
  let seen = Array.make n false in
  let stack = ref [ start ] in
  seen.(start) <- true;
  let count = ref 1 in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        Sparse.Csr.iter_row m i (fun j _ ->
            if not seen.(j) then begin
              seen.(j) <- true;
              incr count;
              stack := j :: !stack
            end)
  done;
  !count = n

let is_irreducible c =
  n_states c > 0 && reachable_all c.tpm 0 && reachable_all (Sparse.Csr.transpose c.tpm) 0
