(* diagonal of P extracted from its transpose's rows, turned into the
   sweep's denominators 1 - P_ii *)
let denominators pt =
  Array.init (Sparse.Csr.rows pt) (fun i ->
      let denom = 1.0 -. Sparse.Csr.get pt i i in
      (* a self-loop probability of 1 means an absorbing state; clamp to keep
         the sweep finite, irreducibility checks catch the modeling error *)
      if denom < 1e-300 then 1e-300 else denom)

(* One in-place Gauss-Seidel sweep over the transposed TPM: each [x_i] is
   recomputed from the freshest values of the others. *)
let gauss_seidel_sweep pt denom x =
  for i = 0 to Linalg.Vec.dim x - 1 do
    let acc = ref 0.0 in
    Sparse.Csr.iter_row pt i (fun j v -> if j <> i then acc := !acc +. (v *. x.(j)));
    x.(i) <- !acc /. denom.(i)
  done

let solve ?(tol = 1e-12) ?(max_iter = 100_000) ?init ?trace chain =
  let pt = Sparse.Csr.transpose (Chain.tpm chain) in
  let denom = denominators pt in
  let n = Chain.n_states chain in
  let x = match init with Some v -> Linalg.Vec.copy v | None -> Chain.uniform chain in
  Linalg.Vec.normalize_l1 x;
  let prev = Linalg.Vec.create n in
  let iterations = ref 0 in
  let continue_ = ref (n > 0) in
  while !continue_ && !iterations < max_iter do
    Array.blit x 0 prev 0 n;
    gauss_seidel_sweep pt denom x;
    Linalg.Vec.normalize_l1 x;
    incr iterations;
    let diff = Linalg.Vec.dist_l1 x prev in
    (match trace with
    | Some t -> Cdr_obs.Trace.record t ~iter:!iterations ~residual:diff
    | None -> ());
    if diff <= tol then continue_ := false
  done;
  Solution.make ~chain ~pi:x ~iterations:!iterations ~tol

let sweeps_gauss_seidel ~transposed x n_sweeps =
  let denom = denominators transposed in
  for _ = 1 to n_sweeps do
    gauss_seidel_sweep transposed denom x;
    Linalg.Vec.normalize_l1 x
  done
