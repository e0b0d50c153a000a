(** Multilevel aggregation ("algebraic multigrid for Markov chains",
    Horton–Leutenegger) — the paper's dedicated solver for the very large
    CDR chains.

    The caller supplies a coarsening hierarchy: a list of {!Partition.t}
    where the first partitions the fine chain, the second partitions the
    result of the first, and so on. The CDR model supplies the structured
    hierarchy that halves the phase-error grid at every level; a generic
    {!default_hierarchy} (pairing consecutive states) is available for
    arbitrary chains.

    Each V-cycle: pre-smooth (Gauss-Seidel, rows in index order), coarsen with the smoothed
    iterate as weights, recurse, multiplicative disaggregation, post-smooth.
    The coarsest level — first level at or below {!Gth.max_direct_size}
    states, or the end of the hierarchy — is solved exactly with GTH. *)

type stats = {
  cycles : int; (* V-cycles performed *)
  levels : int; (* levels including the finest and the coarsest *)
  coarsest_size : int;
  smoothing_sweeps : int; (* total Gauss-Seidel sweeps across all levels *)
}

exception Cancelled
(** Raised by {!solve} / {!solve_with} when the [?cancel] hook fires. The
    check runs between V-cycles only (never inside one), so the setup's
    workspaces are not mid-update when the exception propagates; the setup
    stays valid for the next solve. *)

val default_hierarchy : n:int -> coarsest:int -> Partition.t list
(** Pair consecutive states until [coarsest] (or fewer) states remain. *)

type setup
(** The symbolic phase of the solver, separated from the numeric phase:
    per-level sparsity patterns, transpose maps, aggregation groupings and
    preallocated workspaces — everything that depends on the chain's
    {e structure} but not its {e values}. A sweep whose points share one
    sparsity pattern (e.g. a [sigma_w] continuation, where only transition
    probabilities move) pays this cost once and runs every solve through
    {!solve_with}.

    The layout is compact. Every index array is an int32 Bigarray, off the
    OCaml heap, and a setup copies nothing the chain already holds: the
    finest level reads the chain's own values at every solve. A level above
    the coarsest keeps its row pointers, its transposed pattern and
    permutation, the transposed values the smoother sweeps, its iterate,
    and the aggregation onto the next level (entry targets and the
    block-to-states grouping). The coarsest level keeps its pattern for the
    dense GTH fill. {!setup_bytes} sums it all.

    A setup owns mutable workspaces: at most one [solve_with] may run
    against it at a time (use one setup per worker for parallel sweeps). *)

val setup : hierarchy:Partition.t list -> Chain.t -> setup
(** Build the symbolic setup from the chain's sparsity pattern: per-level
    patterns, transpose maps and aggregation groupings. Raises
    [Invalid_argument] when the hierarchy sizes do not chain up with the
    fine chain. *)

val matches : setup -> Chain.t -> bool
(** Whether the chain's TPM has the sparsity pattern the setup was built
    from. O(1) when the structure arrays are physically shared (the
    [Sparse.Csr.refill] path), O(nnz) otherwise. *)

val levels : setup -> int
(** Number of levels including the finest and the coarsest. *)

val setup_bytes : setup -> int
(** The memory the setup keeps alive, in bytes, computed from its array
    lengths: every heap block (header included), every Bigarray's custom
    block and off-heap payload, and the chain's structure arrays the setup
    references for {!matches}. This is the figure {!Cdr.Solver_cache}
    budgets against. It leaves out the per-solve scratch of
    {!solve_with}. *)

val solve_with :
  ?tol:float ->
  ?max_cycles:int ->
  ?pre_smooth:int ->
  ?post_smooth:int ->
  ?cycle:[ `V | `W ] ->
  ?init:Linalg.Vec.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?pool:Cdr_par.Pool.t ->
  ?cancel:(unit -> bool) ->
  setup ->
  Chain.t ->
  Solution.t * stats
(** Run V-cycles against an existing setup and the chain's current values
    (the numeric phase only: one value blit, no pattern, transpose or level
    construction). Raises [Invalid_argument] when [matches setup chain] is
    false. Numerically identical to {!solve} on the same chain — reusing a
    setup across refills changes no result bits.

    [?cancel] is polled before every V-cycle (including the first, so an
    already-expired deadline costs no cycle at all); when it returns [true]
    the solve raises {!Cancelled}. This is the cooperative-cancellation
    device of the serving layer: a deadline check costs one closure call per
    cycle and can never observe a half-updated workspace.

    [?cycle] (default [`V]) selects the recursion shape. [`V] visits each
    coarse level once per cycle — the pinned reference, bit-identical to
    every previous release. [`W] visits the hierarchy below the finest level
    twice per cycle (the second recursion re-aggregates with the coarse
    iterate the first improved; the exactly-solved coarsest level is never
    revisited). Pairwise aggregation with piecewise-constant transfers loses
    per-cycle convergence speed as the hierarchy deepens, so [`V] cycle
    counts grow with the grid; [`W] restores near-grid-independent counts at
    roughly [levels/2]x the per-cycle cost — the right trade on the very
    large ladder chains (see the MG-LADDER bench section).

    Aggregation computes block weights and coarse rows in a single pooled
    batch, and iterate restriction is a copy of those block weights.

    Each solve allocates its scratch once: the dense coarsest matrix that
    GTH eliminates in place ({!Gth.solve_in_place}), the exit masses, and
    the [x * P] vector of the residual test. The number of major-heap words
    a solve allocates therefore does not grow with its cycle count. *)

type scratch
(** The coarsest level's direct-solve buffers: the dense matrix
    {!Gth.solve_in_place} eliminates and its exit masses. [solve_with]
    allocates one per solve; a caller running single cycles with {!cycle}
    owns one and reuses it. *)

val scratch : setup -> scratch
(** Fresh buffers sized for the setup's coarsest level ([8 * (c^2 + c)]
    bytes for [c] coarsest states). Not counted by {!setup_bytes}. *)

val scratch_cycles : scratch -> int
(** How many cycles have run in these buffers: every {!cycle} call, and
    every cycle of a {!solve_with} (which owns its own scratch). *)

val cycle :
  ?pre_smooth:int ->
  ?post_smooth:int ->
  ?pool:Cdr_par.Pool.t ->
  scratch ->
  setup ->
  Chain.t ->
  Linalg.Vec.t ->
  unit
(** [cycle scratch setup chain x] runs exactly one V-cycle from [x]
    (normalized in l1) against the chain's current values and writes the
    new iterate back into [x]: no residual test, no solution record, and
    no allocation beyond a few closures. The cycle counts in
    [scratch_cycles scratch]. It is the cycle {!solve_with}
    runs, with the same [?pre_smooth], [?post_smooth] and [?pool]
    defaults and the same bits. Raises [Invalid_argument] when
    [matches setup chain] is false, [x] has the wrong length, or [scratch]
    was made for a smaller coarsest level. *)

val solve :
  ?tol:float ->
  ?max_cycles:int ->
  ?pre_smooth:int ->
  ?post_smooth:int ->
  ?cycle:[ `V | `W ] ->
  ?init:Linalg.Vec.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?pool:Cdr_par.Pool.t ->
  ?cancel:(unit -> bool) ->
  hierarchy:Partition.t list ->
  Chain.t ->
  Solution.t * stats
(** [setup] followed by [solve_with] on a fresh setup. Defaults:
    [tol = 1e-12], [max_cycles = 200], [pre_smooth = 2],
    [post_smooth = 2]. Raises [Invalid_argument] when the hierarchy sizes
    do not chain up with the fine chain.

    [?pool] parallelizes the V-cycle interior around the smoother: the
    per-cycle stationarity-residual SpMV, the transpose scatter,
    aggregation, iterate restriction and prolongation (all over fixed slot
    grids whose per-slot accumulation order equals the serial one, so
    pooled results are bitwise identical to serial ones). The Gauss-Seidel
    sweep has a loop-carried dependency across all rows and stays serial.

    With [?trace], one sample per V-cycle (the l1 stationarity residual the
    convergence test uses — computed per cycle regardless, so tracing adds no
    numerical work) and a per-level smoothing-sweep breakdown via
    {!Cdr_obs.Trace.record_sweeps} (level 0 = finest; the coarsest level is
    solved directly and performs no sweeps).

    While {!Cdr_obs.Span.recording} is true, every leaf stage of a cycle
    runs in a span named [multigrid.scatter], [multigrid.smooth],
    [multigrid.aggregate], [multigrid.restrict], [multigrid.prolong] or
    [multigrid.coarsest], and every residual test in a
    [multigrid.residual] span, each with a [level] attribute. Stage spans
    never nest, so their durations are disjoint. With recording off a stage
    costs one flag test. *)
