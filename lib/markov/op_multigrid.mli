(** Iterative aggregation/disaggregation with a matrix-free finest level.

    The multilevel solver for operators that are never materialized: the
    fine level is any {!Cdr_op.t} touched only through its action ([x * M])
    and per-row entry enumerator, while the aggregated coarse chain — at
    most half the fine dimension, the only CSR this solver builds — is
    solved exactly by {!Multigrid} with the remaining hierarchy. Each outer
    cycle: power-sweep pre-smoothing, weighted aggregation (block weights
    from the smoothed iterate), coarse solve, {!Partition.prolong}
    disaggregation, post-smoothing, fine residual test.

    The aggregated sparsity pattern depends only on the operator structure
    and the partition, so cycles after the first refill it in place
    ([Sparse.Csr.refill]): the coarse chain keeps physically shared
    structure arrays and one {!Multigrid.setup} serves the whole solve. *)

type stats = {
  cycles : int; (* outer IAD cycles performed *)
  coarse_states : int;
  coarse_nnz : int; (* nonzeros of the aggregated coarse TPM *)
  smoothing_sweeps : int; (* fine-level power sweeps, pre + post *)
}

val default_hierarchy : n_coarse:int -> Partition.t list
(** {!Multigrid.default_hierarchy} from the coarse dimension down to the
    direct-solve size. *)

type setup
(** The reusable state of the solver: the partition and coarse hierarchy,
    preallocated iterate/weight/aggregation vectors, and — after the first
    cycle has run — the assembled coarse pattern, its in-place refill
    buffer, and the coarse {!Multigrid.setup}. A service answering repeated
    queries against one operator structure pays these allocations once and
    runs every request through {!solve_with}. Owns mutable workspaces: at
    most one solve may run against a setup at a time. *)

val prepare : ?coarse_hierarchy:Partition.t list -> partition:Partition.t -> Cdr_op.t -> setup
(** Allocate a setup for operators of this dimension/structure. Cheap (the
    coarse pattern and Multigrid setup materialize lazily on the first
    {!solve_with}). Raises [Invalid_argument] when the partition does not
    cover the operator dimension. *)

val matches : setup -> Cdr_op.t -> bool
(** Whether the operator has the dimension the setup was prepared for.
    The nonzero structure may differ: when the operator emits an aggregated
    entry outside the cached coarse pattern, {!solve_with} assembles the
    pattern (and with it the coarse {!Multigrid.setup}) afresh. Entries the
    new operator no longer emits stay in the pattern as explicit zeros. *)

val solve_with :
  ?tol:float ->
  ?max_cycles:int ->
  ?pre_smooth:int ->
  ?post_smooth:int ->
  ?fuse:bool ->
  ?init:Linalg.Vec.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?pool:Cdr_par.Pool.t ->
  ?cancel:(unit -> bool) ->
  setup ->
  Cdr_op.t ->
  Solution.t * stats
(** Run outer IAD cycles against an existing setup: no vector, pattern,
    buffer or coarse-setup allocation beyond the lazily-built first-cycle
    structures. Numerically identical to {!solve} with the same arguments.
    [?fuse] (default [true]) runs the whole outer loop inside one
    {!Cdr_par.Pool.run_phases} region — fine applies, aggregation refills
    and nested coarse V-cycles all dispatch into one persistent team — and
    selects the fused coarse-cycle kernels ({!Multigrid.solve_with}'s
    [?fuse]); both settings produce bit-identical results. *)

val solve :
  ?tol:float ->
  ?max_cycles:int ->
  ?pre_smooth:int ->
  ?post_smooth:int ->
  ?fuse:bool ->
  ?init:Linalg.Vec.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?pool:Cdr_par.Pool.t ->
  ?cancel:(unit -> bool) ->
  ?coarse_hierarchy:Partition.t list ->
  partition:Partition.t ->
  Cdr_op.t ->
  Solution.t * stats
(** [prepare] followed by [solve_with] on a fresh setup. Defaults:
    [tol = 1e-12], [max_cycles = 200], [pre_smooth = 2],
    [post_smooth = 2], [init = uniform], and
    [coarse_hierarchy = default_hierarchy] (a hierarchy for the {e coarse}
    chain: its first partition must cover [partition.n_coarse] states).
    [partition] aggregates the fine operator. Raises [Invalid_argument]
    when the partition does not cover the operator dimension.

    [?pool] parallelizes the fine applies, the aggregation value pass (a
    fixed coarse-row slot grid; rows write disjoint segments, entries
    accumulate in emission order, so pooled and serial refills agree
    bitwise) and the coarse V-cycles. [?cancel] is polled before every
    outer cycle and inside the coarse solve; when it fires the solve
    raises {!Multigrid.Cancelled} with all workspaces intact. With
    [?trace], one sample per outer cycle recording the fine l1
    stationarity residual the convergence test uses. *)
