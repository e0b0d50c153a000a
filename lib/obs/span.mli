(** Nestable timing scopes.

    [with_ ~name f] runs [f] inside a span; spans opened during [f] become
    children, so a run produces a trace tree with per-span wall-clock and
    minor-heap allocation deltas. Each completed span is also emitted as a
    JSONL event (children before parents, as they finish).

    Recording only happens while {!recording} is true — a sink is installed
    ({!Sink.enabled}) or recording was forced with {!set_forced} (tests, the
    bench harness). Otherwise [with_ ~name f] is [f ()] plus one flag test:
    instrumented code pays nothing when telemetry is off.

    Domain safety: the open-span stack is domain-local, so spans opened on a
    [Cdr_par.Pool] worker nest among that worker's spans only; completed
    top-level spans from every domain are collected into one shared list
    ({!roots}), and each emitted span event carries a ["domain"] field with
    the recording domain's id. *)

type t = {
  name : string;
  attrs : (string * string) list;
  start : float; (* Clock.monotonic at entry: duration math must not see wall-clock jumps *)
  mutable dur : float; (* seconds; set at exit *)
  mutable minor_words : float; (* allocation delta over the span *)
  mutable children : t list; (* in start order *)
}

val with_ : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** Run [f] inside a span named [name]. Exceptions propagate; the span is
    closed either way. *)

val timed : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a * float
(** [with_], but also return the elapsed seconds — the replacement for the
    ad-hoc [Unix.gettimeofday] deltas that used to be scattered around the
    callers. Times even when recording is off. *)

val recording : unit -> bool

val set_forced : bool -> unit
(** Force recording on (or back to sink-driven) regardless of sinks; roots
    are then retrievable with {!roots}. *)

val roots : unit -> t list
(** Completed top-level spans, oldest first. Children lists are likewise in
    start order. *)

val reset : unit -> unit
(** Drop retained roots (and any unbalanced open spans). *)
