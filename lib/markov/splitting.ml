type method_ = Jacobi | Gauss_seidel

(* diagonal of P extracted from its transpose's rows *)
let diagonal pt =
  Array.init (Sparse.Csr.rows pt) (fun i -> Sparse.Csr.get pt i i)

let denominators diag =
  Array.map
    (fun d ->
      let denom = 1.0 -. d in
      (* a self-loop probability of 1 means an absorbing state; clamp to keep
         the sweep finite, irreducibility checks catch the modeling error *)
      if denom < 1e-300 then 1e-300 else denom)
    diag

(* Damped Jacobi over any operator. The method needs only the diagonal and
   the P^T x product, both of which every backend supplies; with the CSR
   backend this is the historical transpose-then-row-dot path, bitwise. *)
let solve_op ?(tol = 1e-12) ?(max_iter = 100_000) ?init ?trace ?pool op =
  let n = Cdr_op.dim op in
  let diag = Cdr_op.diag op in
  let denom = denominators diag in
  let x =
    match init with
    | Some v -> Linalg.Vec.copy v
    | None -> Array.make n (1.0 /. float_of_int n)
  in
  Linalg.Vec.normalize_l1 x;
  let prev = Linalg.Vec.create n in
  let iterations = ref 0 in
  let continue_ = ref (n > 0) in
  while !continue_ && !iterations < max_iter do
    Array.blit x 0 prev 0 n;
    (* y = P^T x computed against the frozen previous iterate; the sweep
       is damped by 1/2 because pure Jacobi has iteration-matrix spectrum
       touching -1 on periodic chains (it oscillates instead of
       converging); damping maps the spectrum into the unit disk *)
    let y = Cdr_op.mul_vec ?pool op prev in
    for i = 0 to n - 1 do
      let jacobi_value = (y.(i) -. (diag.(i) *. prev.(i))) /. denom.(i) in
      x.(i) <- 0.5 *. (prev.(i) +. jacobi_value)
    done;
    Linalg.Vec.normalize_l1 x;
    incr iterations;
    let diff = Linalg.Vec.dist_l1 x prev in
    (match trace with
    | Some t -> Cdr_obs.Trace.record t ~iter:!iterations ~residual:diff
    | None -> ());
    if diff <= tol then continue_ := false
  done;
  let residual pi =
    let y = Linalg.Vec.create n in
    Cdr_op.vec_mul_into op pi y;
    Linalg.Vec.dist_l1 y pi
  in
  Solution.make_residual ~residual ~pi:x ~iterations:!iterations ~tol

(* One in-place Gauss-Seidel sweep over the transposed TPM: each [x_i] is
   recomputed from the freshest values of the others. *)
let gauss_seidel_sweep pt denom x =
  for i = 0 to Linalg.Vec.dim x - 1 do
    let acc = ref 0.0 in
    Sparse.Csr.iter_row pt i (fun j v -> if j <> i then acc := !acc +. (v *. x.(j)));
    x.(i) <- !acc /. denom.(i)
  done

let solve ~method_ ?(tol = 1e-12) ?(max_iter = 100_000) ?init ?trace ?pool chain =
  match method_ with
  | Jacobi ->
      solve_op ~tol ~max_iter ?init ?trace ?pool (Cdr_op.Csr_backend.create (Chain.tpm chain))
  | Gauss_seidel ->
      let pt = Sparse.Csr.transpose (Chain.tpm chain) in
      let denom = denominators (diagonal pt) in
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
  let denom = denominators (diagonal transposed) in
  for _ = 1 to n_sweeps do
    gauss_seidel_sweep transposed denom x;
    Linalg.Vec.normalize_l1 x
  done
