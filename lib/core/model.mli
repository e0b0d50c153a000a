(** The composed CDR Markov chain (the paper's Figure 2 model).

    Global state = (data-source state, counter state, phase-error bin). Two
    construction paths are provided:

    - {!build_via_network} goes through the generic {!Fsm.Network}
      composition — the paper's formalism, literally: four interacting FSMs
      with stochastic inputs, joint noise enumeration, reachability BFS;
    - {!build_direct} produces the same chain by analytically marginalizing
      each noise source where it acts (coins into the data machine, [n_w]
      into phase-detector decision probabilities, [n_r] into phase moves).
      It is orders of magnitude faster and is the one production path
      ({!build}).

    Property tests assert both paths agree transition-by-transition. *)

type reachable = {
  chain : Markov.Chain.t;
  keys : int array; (* chain index -> packed key, in BFS discovery order *)
  index : int array; (* packed key -> chain index, -1 when unreached *)
}
(** The output of {!build_reachable}. Declared before [t] so that [t]'s
    [chain] field wins an unannotated [Model.chain] lookup. *)

type t = {
  config : Config.t;
  chain : Markov.Chain.t;
  n_states : int;
  data_code : int -> int; (* chain index -> component codes *)
  counter_code : int -> int;
  phase_bin : int -> int;
  index_of : data:int -> counter:int -> phase:int -> int option;
  build_seconds : float;
}

val initial_state : Config.t -> int * int * int
(** Canonical start [(data, counter, phase)]: data (bit 0, run 1), counter 0
    and phase bin [grid_points / 2], which is zero phase error. *)

type direct_tables = {
  data_outcomes : (float * int * bool) list array;
      (* per data state: (prob, next data, transition?) *)
  pd_probs : (float * float * float) array; (* per phase bin: lead/null/lag *)
  counter_table : (int * Counter.command) array array;
  nr_atoms : (int * float) list;
}
(** The per-block marginalized probability tables the direct construction
    enumerates successors from. Exposed because they are also exactly the
    ingredients of the Kronecker factorization ({!Kron_model} builds its
    factor matrices from them) — one source of truth for both
    representations. *)

val direct_tables : Config.t -> direct_tables

val build_via_network : Config.t -> t

val build_reachable :
  ?pool:Cdr_par.Pool.t -> switch:float array array -> Config.t array -> reachable
(** The one reachability builder, over a Markov-modulated family of CDR
    chains: regime [e] steps under [configs.(e)] (its successors enumerated
    from {!direct_tables}) and then switches to regime [e'] with probability
    [switch.(e).(e')], so a transition weighs [switch.(e).(e') *. p]. Global
    states pack into dense int keys, regime slowest:
    [(((e * n_data) + data) * n_counter + counter) * grid_points + phase],
    with the dimensions of [configs.(0)] (every regime must share its state
    space). The BFS starts from {!initial_state} in regime 0 and runs on
    flat int arrays, and the CSR is assembled in two symbolic passes plus a
    value pass ({!Sparse.Csr.assemble}) — no hashtables, COO staging or
    per-row lists anywhere on the path. [?pool] parallelizes the value pass
    over rows; results are bit-identical for every job count. *)

val build_direct : ?pool:Cdr_par.Pool.t -> Config.t -> t
(** The base chain: {!build_reachable} with one regime and
    [switch = [|[|1.0|]|]], whose packed key is the direct path's
    [((data * n_counter) + counter) * grid_points + phase]. Bit-identical
    for every job count, and to {!build_direct_reference}. *)

val build_direct_reference : Config.t -> t
(** The original hashtable-and-COO construction, kept as the reference the
    flat path is pinned against (the test suite asserts both produce
    bitwise-identical chains). Not used on any production path. *)

val build : ?pool:Cdr_par.Pool.t -> Config.t -> t
(** The production construction, {!build_direct}. {!build_via_network} and
    {!build_direct_reference} are kept only as references tests compare
    against. *)

val rebuild : ?pool:Cdr_par.Pool.t -> t -> Config.t -> t * bool
(** [rebuild t cfg] builds the model for [cfg] reusing [t]'s reachable-state
    enumeration and CSR sparsity pattern when only noise parameters
    ([sigma_w], [p01]/[p10], the [n_r] pmf, the dead zone, the [n_w]
    discretization) changed: successors are re-enumerated per state straight
    into the cached pattern — no reachability BFS, no state registration, no
    COO sort, no per-row hashtables (entry positions come from a binary
    search in the cached row, {!Sparse.Csr.row_index}) — and the new TPM
    shares structure arrays with the old one ({!Sparse.Csr.refill}), so a
    multigrid setup keyed on the old pattern still matches in O(1). [?pool]
    splits the rows over slots (rows own disjoint value segments; results
    are bit-identical for every job count).

    Returns [(model, true)] on the fast path. Whenever the fast path is not
    provably equivalent to a fresh build — a state-space parameter changed,
    or the new noise parameters move the set of nonzeros — it falls back to
    {!build_direct} and returns [(model, false)]. Counted in the
    ["model.rebuilds"] metric with a [pattern=reused|fresh] label. *)

val operator : t -> Cdr_op.t
(** The chain's TPM wrapped as a {!Cdr_op.t} CSR backend — the materialized
    counterpart of {!Kron_model.operator}, so backend-generic code (solvers,
    benches, tests) can treat both representations uniformly. *)

val phase_marginal : t -> pi:Linalg.Vec.t -> Linalg.Vec.t
(** Stationary marginal over phase bins (the density the paper plots). *)

val keyed_hierarchy :
  n:int ->
  lead:(int -> int) ->
  counter:(int -> int) ->
  phase:(int -> int) ->
  Markov.Partition.t list
(** The structured coarsening over [n] states keyed by [(lead i, counter i,
    phase i)]: each level lumps pairs of consecutive phase bins while keeping
    the other coordinates — the paper's strategy — and lumps counter pairs
    once the phase grid is exhausted. [lead] packs every coordinate that is
    never lumped (the data state here; regime and data on a composed chain).
    Halving stops once the level fits {!Markov.Gth.max_direct_size} or
    neither coordinate can be halved further. *)

val hierarchy : t -> Markov.Partition.t list
(** {!keyed_hierarchy} over the chain's (data, counter, phase) codes. *)

type solver =
  [ `Multigrid | `Power | `Gauss_seidel | `Jacobi | `Aggregation | `Arnoldi ]

val solve_chain :
  ?solver:solver ->
  ctx:Context.t ->
  hierarchy:(unit -> Markov.Partition.t list) ->
  Markov.Chain.t ->
  Markov.Solution.t
(** The stationary solve of a materialized chain under [ctx] — the one CSR
    path behind {!solve} and the composed chain's CSR representation.
    Default [`Multigrid] over [hierarchy ()], whose setup comes from
    [ctx.cache] when the context carries one (see {!Solver_cache}).
    [ctx.init] warm-starts the iterative solvers (multigrid, power, the
    splittings) and is ignored when its length is not the chain's.
    [ctx.trace] is forwarded to every solver's convergence recorder except
    [`Aggregation]'s; [ctx.pool] to the solvers with deterministic parallel
    kernels (not [`Aggregation] or [`Arnoldi]); [ctx.smoother] selects the
    multigrid Gauss-Seidel variant and is part of the cache key. A firing
    [ctx.cancel] aborts a multigrid solve with {!Markov.Multigrid.Cancelled};
    the other solvers do not poll it. [`Aggregation] aggregates over the
    first hierarchy level. *)

val solve : ?solver:solver -> ?ctx:Context.t -> t -> Markov.Solution.t
(** {!solve_chain} on the model's chain with the structured {!hierarchy},
    inside a ["model.solve"] span. [ctx] defaults to {!Context.default}:
    multigrid at tolerance [1e-12], cold start, no cache, no pool. *)

val solver_name : solver -> string
(** Stable lower-case names used in span attributes and telemetry labels. *)

val network : Config.t -> Fsm.Network.t * int array
(** The underlying FSM network and its initial state vector (exposed for
    inspection, simulation, and the Figure-2 style summary dump). *)
