(** Power iteration: [pi <- pi P] until stationary.

    Converges at the rate of the subdominant eigenvalue modulus; slow on the
    stiff CDR chains (that is the point of the multigrid method) but simple,
    robust, and the smoother used inside the multilevel cycles. *)

val solve_op :
  ?tol:float ->
  ?max_iter:int ->
  ?init:Linalg.Vec.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?pool:Cdr_par.Pool.t ->
  Cdr_op.t ->
  Solution.t
(** Power iteration against any {!Cdr_op.t} — the path that solves chains
    whose TPM is never materialized (the Kronecker backend). Defaults:
    [tol = 1e-12], [max_iter = 100_000], [init = uniform]. With [?trace],
    one sample per iteration: the l1 step difference
    [||pi_{k+1} - pi_k||_1] (which for a normalized power step is the l1
    stationarity residual) is recorded as the residual. [?pool] parallelizes
    the operator apply of every step; pooled runs are bit-identical for any
    job count on a given backend. *)

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?init:Linalg.Vec.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?pool:Cdr_par.Pool.t ->
  Chain.t ->
  Solution.t
(** {!solve_op} through a CSR backend on the chain's TPM; every kernel call
    equals the pre-abstraction chain path, so results are bitwise identical
    to earlier releases. *)
