(** Grassmann–Taksar–Heyman (GTH) elimination: a direct, subtraction-free
    stationary-distribution solver.

    GTH is the numerically safe way to solve small chains exactly — all
    operations are additions/multiplications/divisions of non-negative
    quantities, so no cancellation occurs even for nearly-uncoupled chains.
    O(n^3) dense; used for the coarsest multigrid level and as the reference
    oracle in tests. *)

val solve_dense : Linalg.Mat.t -> Linalg.Vec.t
(** Stationary distribution of a row-stochastic dense matrix: a copy of
    the matrix through {!solve_in_place}. Requires the
    chain to be irreducible; raises [Invalid_argument] on a non-square input
    and [Failure] when elimination encounters an isolated state (reducible
    chain). *)

val solve_in_place :
  n:int -> float array -> exit:float array -> Linalg.Vec.t -> unit
(** The allocation-free kernel behind {!solve_dense}: [solve_in_place ~n a
    ~exit pi] stores the stationary distribution of the row-major [n x n]
    matrix [a] (entry [(i, j)] at [a.(i * n + j)]) into [pi] (length [n]),
    overwriting [a] with the elimination and [exit] (length at least [n])
    with the censored exit masses. Callers solving repeatedly (the
    coarsest multigrid level, once per V-cycle) reuse the three buffers;
    [a] must be refilled before every call. Raises [Invalid_argument] when
    a buffer is too small and [Failure] on a reducible chain. *)

val solve : ?trace:Cdr_obs.Trace.t -> Chain.t -> Linalg.Vec.t
(** Sparse front end to {!solve_dense}. GTH is direct, so with [?trace] it
    records exactly one sample ([iter = 1]) carrying the achieved l1
    stationarity residual (the residual is only measured when a trace is
    supplied). *)

val max_direct_size : int
(** Advisory size bound (number of states) under which the dense O(n^3) solve
    is considered cheap; multigrid coarsens down to this. *)
