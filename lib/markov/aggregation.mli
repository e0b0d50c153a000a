(** Iterate-weighted lumping and the two-level aggregation/disaggregation
    (Koury–McAllister–Stewart) stationary solver.

    The coarse chain depends on the current iterate [x]: block [I] maps to
    block [J] with probability [sum_{i in I} (x_i / X_I) sum_{j in J} P_ij],
    i.e. the exact transition probabilities of the lumped process *if* [x]
    were the true stationary vector restricted to each block (the "weak
    lumpability with respect to the current guess" the paper describes). *)

val coarsen : Chain.t -> Partition.t -> weights:Linalg.Vec.t -> Chain.t
(** Blocks with zero weight use uniform intra-block weights so the coarse
    chain stays stochastic. *)

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?smooth:int ->
  ?init:Linalg.Vec.t ->
  partition:Partition.t ->
  Chain.t ->
  Solution.t
(** Two-level A/D cycle: [smooth] Gauss-Seidel sweeps (default 2), coarsen
    with the smoothed iterate, solve the coarse chain exactly (GTH),
    disaggregate multiplicatively, repeat. [max_iter] counts cycles
    (default 1000), [tol] is the l1 stationarity residual (default 1e-12).

    The coarse solve is dense, so it refuses large coarse chains: raises
    [Invalid_argument], naming the coarse size, when the dense coarse
    matrix ([8 * n_coarse^2] bytes) would exceed 256 MiB (about 5,790
    coarse states). *)
