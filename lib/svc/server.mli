(** The long-running analysis server behind [cdr_serve]: one request per
    stdin line, one response per stdout line ({!run_stdio_service}).

    Threading model: the protocol reader is a lightweight systhread (it
    blocks in [input_line], which releases the runtime lock), the solve
    loop runs on the main thread, and solve parallelism comes from the
    engine's domain pool — so OCaml domains are spent on numeric kernels,
    not on I/O plumbing. A ticker thread wakes every 50 ms purely to
    guarantee signal delivery while everything else is parked in blocking
    C calls.

    Shutdown: SIGTERM or stdin EOF stops admission, the loop drains every
    already accepted request, replies to each, and the entry point returns
    normally — the caller exits 0. Requests arriving during the drain are
    refused with an ["overloaded"] error.

    The stdio front end runs over the {!service} record, so the
    multi-replica {!Router} reuses the exact same reader, shutdown ticker,
    and drain semantics as the single-process engine. *)

type config = {
  queue_bound : int;
      (** max queued (admitted, not yet executing) requests; pushes beyond
          it are answered ["overloaded"] immediately *)
  jobs : int option;
      (** worker-domain count for the engine pool; [None] or [Some 1]
          solves serially (no domains spawned) *)
  default_deadline_ms : float option;
      (** applied to requests that carry no ["deadline_ms"] *)
  replica : int option;
      (** when this process is worker replica [i] under a router: labels
          the queue-depth gauge and per-request series with [replica=i] *)
  results : Result_cache.t option;
      (** params-keyed full-response memoization cache, consulted before
          solving (see {!Engine.create}); [None] disables memoization *)
}

(** A request sink. [submit_line] is called from the reader thread with
    one raw request line and must eventually call [write] exactly once
    with the response (immediately for a rejection); [run] executes on the
    main thread until shutdown {e and} drain complete; [shutdown]
    (idempotent, any thread) stops admission. *)
type service = {
  submit_line : write:(Cdr_obs.Jsonl.t -> unit) -> string -> unit;
  run : unit -> unit;
  shutdown : unit -> unit;
}

val local_service : config -> service
(** The single-process implementation: an {!Engine} over an {!Admission}
    queue, refusing with ["overloaded"] beyond [queue_bound]. *)

val run_stdio_service : service -> unit

val run_stdio : config -> unit
(** [run_stdio cfg = run_stdio_service (local_service cfg)] *)
