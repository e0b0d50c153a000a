(** Classical matrix splittings for the singular system [pi (I - P) = 0].

    Working on the transposed system [(I - P^T) x = 0], the Jacobi and
    Gauss-Seidel sweeps both compute, for each state [i],

    [x_i <- ( sum_{j<>i} P_ji x_j ) / (1 - P_ii)]

    differing only in which iterate supplies the [x_j] (previous for Jacobi,
    freshest available for Gauss-Seidel).
    See W. J. Stewart, "Introduction to the Numerical Solution of Markov
    Chains" (the paper's reference [4]). *)

type method_ = Jacobi | Gauss_seidel
(** [Jacobi] is damped by 1/2 (pure Jacobi oscillates on periodic chains). *)

val solve_op :
  ?tol:float ->
  ?max_iter:int ->
  ?init:Linalg.Vec.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?pool:Cdr_par.Pool.t ->
  Cdr_op.t ->
  Solution.t
(** Damped Jacobi against any {!Cdr_op.t}: the only splitting that needs no
    per-row access to the transpose, just the diagonal and the [P^T x]
    product — so it works matrix-free. With a CSR backend this reproduces
    [solve ~method_:Jacobi] bitwise (same lazily-built transpose, same row
    dots); [solve ~method_:Jacobi] is routed through here. Gauss-Seidel
    reads individual transpose rows mid-sweep and stays CSR-only. *)

val solve :
  method_:method_ ->
  ?tol:float ->
  ?max_iter:int ->
  ?init:Linalg.Vec.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?pool:Cdr_par.Pool.t ->
  Chain.t ->
  Solution.t
(** Defaults: [tol = 1e-12], [max_iter = 100_000], [init = uniform]. With
    [?trace], one sample per sweep recording the l1 step difference the
    convergence test uses as the residual. [?pool] parallelizes the Jacobi
    sweep's [P^T x] product (deterministically); Gauss-Seidel keeps its
    loop-carried dependency and runs serially regardless. *)

val sweeps_gauss_seidel : transposed:Sparse.Csr.t -> Linalg.Vec.t -> int -> unit
(** [n_sweeps] in-place Gauss-Seidel sweeps given the pre-transposed TPM,
    each the same sweep {!solve} runs, followed by an l1 normalization; used
    by the aggregation smoother, which transposes once per level. *)
