(** Request execution: one engine owns the process-wide solver state.

    The engine is single-consumer by design — multigrid setups own mutable
    workspaces, so requests execute one at a time and parallelism lives
    {e inside} a request (the domain pool is handed to the solver kernels
    via a {!Cdr.Context.t}). What {e is} shared across requests:

    - one {!Cdr.Solver_cache.t}, so same-structure requests reuse the
      symbolic multigrid setup. Its byte budget bounds the largest share
      of the server's memory; after every request the engine publishes
      the cache's entry count and accounted bytes as the
      ["solver_cache.entries"] and ["solver_cache.bytes"] gauges (with the
      replica label), and the stats payload's [cache] object carries
      them as [entries] and [bytes];
    - the most recent model, so a request whose {!Params.model_key} matches
      goes through {!Cdr.Model.rebuild}'s in-place refill instead of a full
      build. The most recent composed environment model
      ({!Cdr_env.Composed.t}) is memoized the same way for ["env"]
      requests, IAD setup included.

    {!process} exploits both by grouping a batch of jobs by
    {!Params.structure_key} (first-arrival order preserved between groups
    and within a group), so interleaved request streams still amortize. *)

type t

val create :
  ?pool:Cdr_par.Pool.t ->
  ?cache:Cdr.Solver_cache.t ->
  ?results:Result_cache.t ->
  ?replica:int ->
  unit ->
  t
(** [?cache] defaults to a fresh {!Cdr.Solver_cache.create} (exposed so
    tests can assert on hit counts). [?results] plugs in a result
    memoization cache: cacheable requests (see {!Protocol.cache_key}) are
    looked up before config validation and solving, a hit replays the
    stored response byte-identically under the request's id, and every ok
    response is stored back — traffic lands on
    ["serve.result_cache"{result=hit|miss|evict}]. [?replica] stamps a
    [replica=<i>] label on the per-request series
    (["serve.requests"]/["serve.latency_seconds"]/["serve.stage_seconds"])
    and adds [replica]/[pid] fields to the stats payload, so a router
    aggregating several workers can attribute latency per replica. *)

val cache : t -> Cdr.Solver_cache.t

val results : t -> Result_cache.t option

type job = {
  request : Protocol.request;
  deadline : float option;
      (** absolute {!Cdr_obs.Clock.monotonic} time; queue wait counts
          against it *)
  admitted : float;
      (** {!Cdr_obs.Clock.monotonic} at admission — the anchor of the
          request's stage chain (its queue wait is [start - admitted]) *)
  reply : Cdr_obs.Jsonl.t -> unit;  (** called exactly once per job *)
}

val handle : t -> job -> unit
(** Execute one job and reply. Never raises: config validation errors
    become ["bad_request"], an expired deadline or a solve aborted by the
    cancellation hook becomes ["timeout"], anything else ["internal"]. A
    single-solve request that fails to converge is retried once with a
    1000x relaxed tolerance, warm-started from the failed iterate, and
    flagged ["degraded"] on success. Emits the ["serve.request"] span (with
    ["serve.hold"]/["serve.solve"] children) plus, per request, one
    ["serve.latency_seconds"] observation and the per-stage chain
    ["serve.stage_seconds{stage=queue_wait|hold|solve|serialize}"] — all
    labeled with the request kind and its outcome code — the
    ["serve.setup_cache{kind,result}"] hit/miss deltas, and the
    ["serve.requests"] counter. A [Stats] request is answered inline with a
    snapshot payload (uptime, queue depth, request counts, latency
    p50/p95/p99 per kind and status, solver-cache counters) and never
    touches the model layer. *)

val process : t -> job list -> unit
(** {!handle} a batch, grouped by {!Params.structure_key}; each group's
    size lands in the ["serve.batch_size"] histogram. *)
