(** A fixed pool of worker domains for data-parallel execution.

    The pool exists so the embarrassingly parallel workloads of the analysis
    — sweep points (one stationary solve each) and the row blocks of sparse
    kernels — can use every core without each call site reinventing domain
    management.

    Design rules, chosen so parallel results are trustworthy:

    - {b Determinism.} Every combinator assigns work to fixed slots and
      combines slot results in a fixed order, both independent of the job
      count. A run with [jobs = 1] and a run with [jobs = 8] produce
      bit-identical results (provided the user function is itself
      deterministic and indexes are independent).
    - {b Lazy, bounded domains.} Worker domains ([jobs - 1] of them; the
      caller is the remaining worker) are spawned on first use and only when
      [jobs > 1], so a [jobs = 1] pool adds no threads and no allocation to
      the serial path.
    - {b No re-entrancy surprises.} A pool executes one batch at a time. A
      batch submitted while another is in flight (e.g. a parallel sweep point
      that itself calls a parallel kernel with the same pool) runs serially
      on the calling domain instead of deadlocking. *)

type t

val default_jobs : unit -> int
(** The [CDR_JOBS] environment variable when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] total workers (the calling domain counts as one; the
    pool spawns [jobs - 1] domains lazily). Default: {!default_jobs}.
    Raises [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent; the pool afterwards runs
    every batch serially on the caller. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, and [shutdown] (also on exception). *)

val run_slots : t -> slots:int -> (int -> unit) -> unit
(** [run_slots t ~slots f] runs [f 0 .. f (slots - 1)], distributing slots
    over the workers. Blocks until all slots finish; the first slot exception
    (if any) is re-raised in the caller. This is the primitive the other
    combinators (and the sparse kernels' fixed slot grids) are built on. *)

val run_slots_opt : t option -> slots:int -> (int -> unit) -> unit
(** {!run_slots} against an optional pool: with [None] (or a single slot)
    the slots run serially in index order on the caller. Kernels that
    compute a fixed slot grid from their data structure use this so the
    serial path executes the {e same} slot schedule as the pooled one —
    one code path, bit-identical results with or without a pool. *)

val run_phases : t option -> (unit -> 'a) -> 'a
(** [run_phases pool body] enters a {e phase region} for the extent of
    [body]: worker domains are enlisted once, and every {!run_slots} /
    {!run_slots_opt} batch [body] issues from the calling domain is
    dispatched over a lock-free epoch/ticket protocol (one atomic store to
    publish, CAS claims per slot, spin-then-block waiting) instead of the
    mutex-and-condvar queue. A V-cycle that issues several batches per
    level pays the team start-up once per solve instead of one fan-out per
    batch.

    The slot grids and the slot-indexed result layout are exactly those of
    the queue path, so results are bit-identical to [run_slots] with or
    without a region. Active helpers are capped at the machine's core count
    ([CDR_REGION_MEMBERS] overrides, for tests); with no spare cores the
    region instead pins the pool's nested-batch serial fast path, making
    every batch zero-dispatch-cost on the caller. Identity when [pool] is
    [None], [jobs = 1], or a region/batch is already active (nested regions
    compose with the existing one batch-at-a-time contract). Exceptions
    from a batch re-raise in the caller at that batch's barrier, and
    [body]'s own exceptions release the region. *)

val merge_tree : ?pool:t -> slots:int -> (dst:int -> src:int -> unit) -> unit
(** Pairwise tree reduction over slot indices [0 .. slots-1]: calls
    [merge ~dst ~src] for the fixed pair grid (stride 2, then 4, 8, …),
    leaving the combined result in slot 0. The tree's shape depends only on
    [slots] and every destination accumulates its sources in a fixed order,
    so non-associative merges (float accumulation into per-slot partials)
    are deterministic for any job count, pool or no pool. Pairs within one
    stride run as a pooled batch when [?pool] is given. *)

val parallel_for : t -> ?chunk:int -> int -> (int -> unit) -> unit
(** [parallel_for t n f] runs [f 0 .. f (n - 1)] in chunks of [chunk]
    consecutive indexes (default: an even split into at most [4 * jobs]
    chunks). [f] must only write state owned by its own index. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving map: result index [i] is [f a.(i)]. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!parallel_map} over a list, preserving order. *)

val parallel_reduce : t -> map:(int -> 'a) -> combine:('a -> 'a -> 'a) -> init:'a -> int -> 'a
(** [parallel_reduce t ~map ~combine ~init n] folds
    [combine (... (combine init (map 0)) ...) (map (n-1))] with the [map]
    calls evaluated in parallel but combined strictly in index order, so the
    reduction is deterministic for any job count (even when [combine] is not
    associative, e.g. float addition). *)

(** {1 Profiling}

    An opt-in accounting layer for the "where does the wall time go when
    jobs > 1" question (negative parallel scaling, ROADMAP-1). When enabled,
    every batch records into {!Cdr_obs.Metrics} under the caller's current
    phase labels:

    - ["pool.busy_seconds"] — per-slot task execution time, summed;
    - ["pool.idle_seconds"] — [jobs * wall - busy] for the batch: worker
      capacity the batch could not use (stragglers, too few slots);
    - ["pool.barrier_seconds"] — time the caller waited for slots other
      domains were still running after it had drained the queue;
    - ["pool.merge_seconds"] — {!merge_tree} wall time;
    - ["pool.dispatches"] / ["pool.serial_batches"] / ["pool.tasks"] —
      batch and slot counters (a batch that ran on the calling domain
      because the pool was busy or [jobs = 1] counts as serial).

    Phases are attributed via a domain-local label stack, so a nested batch
    inherits the phase of the code that submitted it. Work not under any
    {!with_phase} reports as [phase=unattributed]. When profiling is off
    (the default) the entire layer is one [Atomic.get] per batch.
    {!Cdr_obs.Profile} aggregates these series into a per-phase report. *)

val set_profiling : bool -> unit
(** Turn batch accounting on or off, process-wide. *)

val profiling_on : unit -> bool

val with_phase : ?labels:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_phase ~labels name f] runs [f] with the current domain's phase set
    to [("phase", name) :: labels] and additionally records [f]'s wall time
    into ["pool.phase_seconds"] under those labels. Nested phases shadow the
    outer one for their extent (instrument leaf phases if the sums are to be
    disjoint). Identity when profiling is off. *)
