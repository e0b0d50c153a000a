(** Process-wide metrics registry: counters, gauges, and log-scale
    histograms, each keyed by a name plus an optional label set.

    The registry exists so the analysis pipeline can record machine-readable
    facts ("chains built", "V-cycles run", "solve seconds" …) without every
    call site inventing its own plumbing. Series are created lazily on first
    use; the same [(name, labels)] pair always resolves to the same series
    regardless of label order.

    The registry is domain-safe: every mutation and snapshot runs under one
    internal mutex, so parallel sweep points (see [Cdr_par.Pool]) can record
    concurrently without lost increments or torn histogram updates. *)

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float; (* +inf when empty *)
  mutable max_v : float; (* -inf when empty *)
  base : float; (* bucket ratio; bucket e spans [base^e, base^{e+1}) *)
  buckets : (int, int) Hashtbl.t; (* exponent -> observation count *)
}

type kind = Counter of int | Gauge of float | Histogram of histogram

type series = { name : string; labels : (string * string) list; kind : kind }

val incr : ?labels:(string * string) list -> string -> unit
(** Counter [name] += 1. *)

val add : ?labels:(string * string) list -> string -> int -> unit
(** Counter [name] += n. *)

val set_gauge : ?labels:(string * string) list -> string -> float -> unit

val observe : ?labels:(string * string) list -> ?base:float -> string -> float -> unit
(** Record one observation into a log-scale histogram (default [base = 10.0]:
    decade buckets). Non-positive and non-finite observations land in a
    dedicated underflow bucket but still update count/sum/min/max. *)

val bucket_of : base:float -> float -> int
(** The bucket exponent [e] with [base^e <= v < base^{e+1}], computed exactly
    at the boundaries (no log round-off: [bucket_of ~base:10. 1000.] is [3]).
    [min_int] for [v <= 0] or non-finite [v]. *)

val bucket_bounds : base:float -> int -> float * float
(** Inclusive lower / exclusive upper edge of a bucket. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0. <= q <= 1.], clamped) of
    the observations by log-bucket interpolation: the bucket holding the
    [q * count]-th observation is located from the per-exponent counts and
    the value interpolated geometrically inside it, clamped to the observed
    [[min_v, max_v]]. The estimate therefore always lands inside the bucket
    that contains the exact sorted-sample quantile — resolution is one
    bucket ratio ([base]), so latency histograms wanting tight p99s use a
    small base (e.g. [~base:2.]). Underflow-bucket observations count as
    [min_v]; [nan] on an empty histogram. *)

val quantile_of : ?labels:(string * string) list -> string -> float -> float option
(** {!quantile} against the live registry series [(name, labels)] — the
    histogram is snapshotted under the registry lock, so this is safe
    against concurrent {!observe}s. [None] if no such histogram exists. *)

val dump : unit -> series list
(** Snapshot of every live series, sorted by name then labels. Histograms
    are deep-copied, so the returned buckets can be read (e.g. by
    {!quantile}) without racing concurrent {!observe}s. *)

val pp : Format.formatter -> unit -> unit
(** Human-readable registry dump. *)

val reset : unit -> unit
(** Drop every series (tests and bench sections). *)
