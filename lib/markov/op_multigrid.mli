(** Iterative aggregation/disaggregation with a matrix-free finest level.

    The multilevel solver for operators that are never materialized: the
    fine level is any {!Cdr_op.t} touched only through its action ([x * M])
    and per-row entry enumerator, while the aggregated coarse chain — at
    most half the fine dimension, the only CSR this solver builds — gets
    one {!Multigrid} V-cycle per outer cycle over the remaining hierarchy,
    down to an exact GTH solve at the coarsest level (Horton–Leutenegger's
    recursive lumping with a matrix-free top). Each outer cycle: power-sweep
    pre-smoothing, weighted aggregation (block weights from the smoothed
    iterate), one coarse V-cycle warm-started from the smoothed iterate's
    block masses, multiplicative disaggregation, post-smoothing, fine
    residual test. Convergence is judged on the fine operator alone, so the
    returned vector carries the same l1 stationarity certificate as with an
    exact coarse solve.

    The aggregated sparsity pattern depends only on the operator structure
    and the partition, so cycles after the first refill it in place
    ([Sparse.Csr.refill]) and re-normalize it in place
    ({!Chain.of_csr_in_place}): the coarse chain keeps physically shared
    structure arrays, one {!Multigrid.setup} serves the whole solve, and an
    outer cycle allocates nothing on the major heap. *)

type stats = {
  cycles : int; (* outer IAD cycles performed *)
  coarse_cycles : int; (* coarse V-cycles run ({!Multigrid.scratch_cycles}): one per outer cycle *)
  coarse_states : int;
  coarse_nnz : int; (* nonzeros of the aggregated coarse TPM *)
  smoothing_sweeps : int; (* fine-level power sweeps, pre + post *)
}

val default_hierarchy : n_coarse:int -> Partition.t list
(** {!Multigrid.default_hierarchy} from the coarse dimension down to the
    direct-solve size. *)

type setup
(** The reusable state of the solver: the partition and coarse hierarchy,
    preallocated iterate/weight/aggregation vectors and the coarse
    iterate, and — after the first cycle has run — the assembled coarse
    pattern, its in-place refill buffer, the coarse {!Multigrid.setup} and
    the coarse V-cycle's direct-solve {!Multigrid.scratch} (kept here, not
    in the Multigrid setup, so {!Multigrid.setup_bytes} does not count
    it). A service answering repeated
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
  ?init:Linalg.Vec.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?pool:Cdr_par.Pool.t ->
  ?cancel:(unit -> bool) ->
  setup ->
  Cdr_op.t ->
  Solution.t * stats
(** Run outer IAD cycles against an existing setup: no vector, pattern,
    buffer, scratch or coarse-setup allocation beyond the lazily-built
    first-cycle structures; per solve, only the returned solution's
    iterate. Numerically identical to {!solve} with the same arguments.
    The whole outer loop runs inside one {!Cdr_par.Pool.run_phases}
    region: fine applies, aggregation refills and the coarse V-cycles all
    dispatch into one persistent team. *)

val solve :
  ?tol:float ->
  ?max_cycles:int ->
  ?pre_smooth:int ->
  ?post_smooth:int ->
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
    [partition] aggregates the fine operator. [max_cycles] counts outer
    cycles; the coarse chain gets exactly one V-cycle in each (with
    [pre_smooth] and [post_smooth] Gauss-Seidel sweeps per coarse level),
    so [stats.coarse_cycles = stats.cycles]. Raises [Invalid_argument]
    when the partition does not cover the operator dimension.

    [?pool] parallelizes the fine applies, the aggregation value pass (a
    fixed coarse-row slot grid; rows write disjoint segments, entries
    accumulate in emission order, so pooled and serial refills agree
    bitwise) and the coarse V-cycles. [?cancel] is polled before every
    outer cycle; when it fires the solve raises {!Multigrid.Cancelled}
    with all workspaces intact. With
    [?trace], one sample per outer cycle recording the fine l1
    stationarity residual the convergence test uses. *)
