(** Params-keyed memoization of finished responses (full-response LRU).

    Repeated identical queries are the common case for the serving
    workload, and a response is a pure function of the canonical request
    encoding (see {!Protocol.cache_key}) — so finished responses are
    cached whole and replayed on a hit, short-circuiting admission,
    batching and solving entirely. Entries hold the response with its
    ["id"] stripped; callers re-attach the requesting id, making a hit
    byte-identical to the cold solve that populated the entry (the stored
    envelope — [elapsed_ms], setup-cache deltas — is replayed verbatim).

    In single-process mode the engine consults the cache per request; in
    multi-replica mode one cache lives in the router, in front of the
    rendezvous forwarding, and is fed by the response pumps — so a hit
    never crosses a process boundary.

    All operations are thread-safe. Traffic lands on the
    ["serve.result_cache"{result=hit|miss|evict}] counters and the
    ["serve.result_cache_entries"] gauge. *)

type t

val create : ?capacity:int -> unit -> t
(** LRU capacity (default 512 entries). Raises [Invalid_argument] when
    [capacity < 1]. *)

val capacity : t -> int

val find : t -> string -> Cdr_obs.Jsonl.t option
(** Lookup by canonical request key; a hit refreshes the entry's recency.
    Counts a hit or a miss — only call on the serving path. *)

val store : t -> string -> Cdr_obs.Jsonl.t -> unit
(** Insert (or refresh) an entry; evicts least-recently-used entries
    beyond capacity. The response should be stored id-stripped
    ({!Protocol.response_sans_id}). *)

val hits : t -> int

val misses : t -> int

val evictions : t -> int

val length : t -> int

val format_version : int
(** The snapshot format {!save} writes, as its first line
    [{"result_cache_format":N}]. Raised whenever the answers a response
    carries change meaning or value, so a reload never serves a response
    the current code would not compute: version 2 is the first to hold
    restart-chain [mean_bits_to_first_slip] values. *)

val save : t -> string -> unit
(** Write the {!format_version} header, then every entry as JSONL, least
    recently used first (so {!load} rebuilds the same recency order).
    Atomic: written to a temp file and renamed. *)

val load : ?capacity:int -> string -> t
(** Rebuild a cache from a {!save} snapshot. A missing file, and a file
    whose first line is not the current {!format_version} header (an
    untagged or older snapshot), yield an empty cache; malformed entry
    lines are skipped (a torn snapshot loses entries, never the server).
    Counts nothing. *)
