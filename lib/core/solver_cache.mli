(** Structure-keyed cache of multigrid solver setups.

    The sweeps of the paper's headline experiments solve many chains that
    share one sparsity structure (a [sigma_w] continuation) or a handful of
    structures (a counter sweep). {!Markov.Multigrid.setup} is pure symbolic
    work — patterns, transpose maps, levels, workspaces — so it is cached per
    structure and only the numeric {!Markov.Multigrid.solve_with} phase runs
    per point.

    The cache is bounded by bytes: each setup is accounted at
    {!Markov.Multigrid.setup_bytes} when it is inserted, and least recently
    used setups are evicted until the total fits the budget. The budget is
    a constant ({!create}'s default), not a command-line flag: every
    workload the service is benchmarked on fits it, so no setting other
    than the default has shown a gain.

    Hit/miss/eviction counts are exposed both per cache (for assertions) and
    through the global [Cdr_obs] metrics registry as the
    ["solver_cache.hits"] / ["solver_cache.misses"] /
    ["solver_cache.evictions"] counters. A cache writes no gauge: a process
    can hold several (the warm sweeps make one per chunk), so the owner of a
    long-lived cache publishes its {!length} and {!bytes} (the service
    does, as ["solver_cache.entries"] and ["solver_cache.bytes"]). *)

(** Setups own mutable workspaces, so a cache must not be shared across
    concurrently solving workers: give each sweep worker its own (the warm
    sweep runner threads one per chunk). *)

type t

val create : ?max_bytes:int -> unit -> t
(** LRU cache whose setups total at most [max_bytes] bytes (default
    128 MiB). Raises [Invalid_argument] when [max_bytes < 1]. *)

val setup :
  t ->
  ?smoother:Markov.Multigrid.smoother ->
  hierarchy:(unit -> Markov.Partition.t list) ->
  Markov.Chain.t ->
  Markov.Multigrid.setup
(** The cached setup matching the chain's sparsity pattern {e and} the
    requested smoother (default [`Lex]; a [`Lex] setup carries no colorings,
    so the smoother is part of the cache key), or a fresh one built from
    [hierarchy ()] (only evaluated on a miss) and inserted. The returned
    setup is moved to the front of the LRU order; inserting one evicts
    least recently used setups until the total fits [max_bytes]. A fresh
    setup larger than [max_bytes] on its own is returned without being
    retained (and evicts nothing). *)

val set_request_key : t -> string option -> unit
(** Attach a request-attribution key to subsequent {!setup} calls: while set,
    every hit/miss/eviction is {e additionally} recorded under the labeled
    series [solver_cache.*{key=K}] (the unlabeled totals are always kept).
    Label cardinality is bounded process-wide: after 16 distinct keys, new
    ones collapse into [key=other] so a hostile or long-tailed workload
    cannot grow the registry without bound. [None] turns attribution off. *)

val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Setups dropped off the LRU tail to bring the total under the budget. *)

val length : t -> int
(** Number of cached setups. *)

val bytes : t -> int
(** Total {!Markov.Multigrid.setup_bytes} of the cached setups; never above
    [max_bytes]. *)
