let coarsen chain partition ~weights =
  let n = Chain.n_states chain in
  if Array.length weights <> n then invalid_arg "Aggregation.coarsen: weights dimension";
  let nc = partition.Partition.n_coarse in
  let block_weight = Partition.restrict partition weights in
  let normalized_weight i =
    let b = Partition.block partition i in
    if block_weight.(b) > 0.0 then weights.(i) /. block_weight.(b)
    else 1.0 /. float_of_int (Partition.block_size partition b)
  in
  let acc = Sparse.Coo.create ~rows:nc ~cols:nc in
  Sparse.Csr.iter (Chain.tpm chain) (fun i j v ->
      let wi = normalized_weight i in
      if wi > 0.0 then
        Sparse.Coo.add acc ~row:(Partition.block partition i) ~col:(Partition.block partition j)
          (wi *. v));
  Chain.of_csr ~tol:1e-6 (Sparse.Coo.to_csr acc)

(* the largest dense coarse matrix the exact coarse solve may build *)
let max_dense_bytes = 256 * 1024 * 1024

let solve ?(tol = 1e-12) ?(max_iter = 1000) ?(smooth = 2) ?init ~partition chain =
  let nc = partition.Partition.n_coarse in
  if 8 * nc * nc > max_dense_bytes then
    invalid_arg
      (Printf.sprintf
         "Aggregation.solve: a %d-state coarse chain needs a %d MiB dense GTH matrix (limit %d MiB)"
         nc
         (8 * nc * nc / (1024 * 1024))
         (max_dense_bytes / (1024 * 1024)));
  let n = Chain.n_states chain in
  let pt = Sparse.Csr.transpose (Chain.tpm chain) in
  let x = match init with Some v -> Linalg.Vec.copy v | None -> Chain.uniform chain in
  Linalg.Vec.normalize_l1 x;
  let iterations = ref 0 in
  let continue_ = ref (n > 0) in
  while !continue_ && !iterations < max_iter do
    Splitting.sweeps_gauss_seidel ~transposed:pt x smooth;
    let coarse_chain = coarsen chain partition ~weights:x in
    let coarse_pi = Gth.solve coarse_chain in
    let x' = Partition.prolong partition ~coarse:coarse_pi ~weights:x in
    Array.blit x' 0 x 0 n;
    Linalg.Vec.normalize_l1 x;
    incr iterations;
    if Chain.residual chain x <= tol then continue_ := false
  done;
  Solution.make ~chain ~pi:x ~iterations:!iterations ~tol
