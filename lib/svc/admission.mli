(** Bounded admission queue between the reader thread(s) and the solve loop.

    The solve loop is deliberately single-consumer — solver setups own
    mutable workspaces, so solve parallelism lives {e inside} a request (the
    domain pool), not across requests. This queue is the only coupling
    point: producers ({!push}) are the protocol readers, the consumer
    ({!pop}/{!drain}) is the engine loop. When the queue is full a push is
    refused immediately rather than blocked — the caller turns that into a
    structured ["overloaded"] response so clients see backpressure instead
    of unbounded latency.

    The current depth is mirrored into the ["serve.queue_depth"] gauge on
    every mutation, carrying the queue's [labels] — a worker replica
    passes [("replica", i)] so per-replica depth is attributable when the
    stats of several replicas are aggregated. *)

type 'a t

val create : ?labels:(string * string) list -> bound:int -> unit -> 'a t
(** Raises [Invalid_argument] when [bound < 1]. [labels] (default none)
    tag the ["serve.queue_depth"] gauge. *)

val push : 'a t -> 'a -> [ `Ok | `Overloaded | `Closed ]
(** Non-blocking enqueue. [`Overloaded] when the queue already holds
    [bound] items; [`Closed] after {!close}. *)

val pop : 'a t -> 'a option
(** Blocking dequeue; [None] once the queue is closed {e and} empty
    (queued work is always drained before shutdown). *)

val drain : 'a t -> 'a list
(** Everything queued right now, oldest first, without blocking. Combined
    with a preceding {!pop} this gives the engine its batch: one blocking
    wait, then whatever else arrived in the meantime rides along. *)

val close : 'a t -> unit
(** Refuse further pushes and wake all blocked poppers. Idempotent. *)

val length : 'a t -> int
