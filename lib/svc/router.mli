(** The acceptor/router side of multi-replica serving.

    One router process owns stdin/stdout and forks [replicas]
    worker processes ({!Replica}), each the same binary re-executed with
    [--replica-worker <i>] over a socketpair. Every parsed request is
    routed by rendezvous hash of its {!Params.structure_key}, so requests
    sharing a structure always land on the same replica and that replica's
    solver-setup cache and model memo stay hot — the process-level
    analogue of the engine's same-structure batching.

    In front of routing sits the optional params-keyed result cache
    ([config.results]): a hit is answered by the router itself,
    byte-identically to the cold solve and without touching any worker,
    and every ok response flowing back is stored. The cache lives here —
    not in the workers — so one replica's solve is a hit for all clients.

    {b Failure model.} A worker death is detected as EOF on its
    socketpair. The router then (1) answers every request in flight on
    that worker with an ["internal"] error — in-flight work is never
    silently retried, because a solve is not known to be idempotent from
    out here, and never left hanging; (2) reaps the child; (3) respawns
    it, unless it has crash-looped (3 deaths within 0.5 s of spawning:
    the replica is marked down and traffic re-routes to survivors — each
    orphaned key falls to its second-highest rendezvous scorer, all other
    keys keep their home). Requests arriving while a replica is down are
    re-routed the same way; if {e no} replica is live they are refused
    with ["internal"].

    Backpressure: at most [config.queue_bound] requests are in flight per
    worker (one executing, the rest inside the worker's admission queue),
    so workers never refuse a forwarded request; beyond the cap the router
    itself answers ["overloaded"], exactly like the single-process server.
    [Stats] requests bypass the cap, fan out to every live replica, and
    come back as one aggregated payload: router counters
    (alive/down/deaths/respawns, result-cache traffic) plus one row per
    replica with that worker's full stats snapshot ([replica] and [pid]
    included, see {!Engine.create}).

    Shutdown half-closes every socketpair: workers see stdin EOF, drain
    all admitted requests, answer each, and exit; the router's
    {!Server.service.run} returns once every pending request is answered
    and every worker is reaped. *)

val route : ?dead:(int -> bool) -> replicas:int -> string -> int option
(** [route ~dead ~replicas key] is the rendezvous (highest-random-weight)
    choice among live replicas: the [i] maximizing the 64-bit FNV-1a score
    of ["replica=" ^ i ^ "|" ^ key] over all [i] with [not (dead i)]. Pure and
    platform-stable — the same key always routes identically. [None] iff
    every replica is dead. [dead] defaults to all-live. *)

val create : ?bin:string -> replicas:int -> Server.config -> Server.service
(** Spawn the worker fleet and return the router as a {!Server.service}
    for {!Server.run_stdio_service}.
    [bin] (default [Sys.executable_name]) is the executable re-run with
    [--replica-worker]. [config.results] enables the shared result cache;
    [config.jobs]/[config.queue_bound]/[config.default_deadline_ms] are
    inherited per worker. *)
