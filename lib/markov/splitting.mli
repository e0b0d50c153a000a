(** Gauss-Seidel, the classical splitting for the singular system
    [pi (I - P) = 0].

    Working on the transposed system [(I - P^T) x = 0], each sweep computes,
    for each state [i] in order,

    [x_i <- ( sum_{j<>i} P_ji x_j ) / (1 - P_ii)]

    from the freshest available [x_j]. See W. J. Stewart, "Introduction to
    the Numerical Solution of Markov Chains" (the paper's reference [4]). *)

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?init:Linalg.Vec.t ->
  ?trace:Cdr_obs.Trace.t ->
  Chain.t ->
  Solution.t
(** Defaults: [tol = 1e-12], [max_iter = 100_000], [init = uniform]. With
    [?trace], one sample per sweep recording the l1 step difference the
    convergence test uses as the residual. The sweep reads individual
    transpose rows and carries a dependency from row to row, so it runs
    serially and needs the materialized chain. *)

val sweeps_gauss_seidel : transposed:Sparse.Csr.t -> Linalg.Vec.t -> int -> unit
(** [n_sweeps] in-place Gauss-Seidel sweeps given the pre-transposed TPM,
    each the same sweep {!solve} runs, followed by an l1 normalization (the
    [gs-sweep] kernel benchmark times one). *)
