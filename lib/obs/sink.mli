(** Telemetry event sinks.

    A sink consumes {!Jsonl.t} events — one per completed span, convergence
    sample, or metrics snapshot. Sinks are installed process-wide;
    instrumentation is free (a single flag test) while none is installed,
    which is what keeps the [?trace]/span hooks zero-cost in production runs.

    Selection matrix (the [CDR_OBS] environment variable, parsed by
    {!init_from_env}):

    {v
    CDR_OBS unset / "" / "off"   no telemetry (default)
    CDR_OBS=stderr               JSONL events on standard error
    CDR_OBS=jsonl:PATH           JSONL events written to PATH (truncated)
    CDR_OBS=PATH                 shorthand for jsonl:PATH
    v} *)

type t
(** An installed sink; {!close_all} uninstalls it. *)

val install_jsonl : ?close_channel:bool -> out_channel -> t
(** Route events to a channel, one JSON object per line. The channel is
    flushed on {!close_all}; it is closed there too when [close_channel]
    (default [false]). *)

val install_file : string -> t
(** [install_jsonl] on a freshly truncated file; closed by {!close_all}. *)

val enabled : unit -> bool
(** True when at least one sink is installed — the fast path checked by every
    instrument before it allocates anything. *)

val emit : Jsonl.t -> unit
(** Send an event to every installed sink. No-op when none is installed. *)

val flush_all : unit -> unit
(** Flush every installed sink's buffered output without uninstalling —
    what a serving process calls at drain points so a [SIGTERM] never
    truncates the last JSONL lines. *)

val close_all : unit -> unit
(** Flush and uninstall every sink; telemetry reverts to disabled. *)

val init_from_env : unit -> unit
(** Install sinks according to [CDR_OBS] (see the matrix above). Called once
    by the binaries at startup; malformed values are ignored (telemetry must
    never take the analysis down). *)
