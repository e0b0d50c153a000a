(** Up/down counter loop filter.

    The digital filter behind the phase detector: LEAD increments, LAG
    decrements, NULL holds. When the count reaches [+K] the filter emits a
    RETARD command (the phase selector steps the clock phase back by [G])
    and resets; reaching [-K] emits ADVANCE. The counter length [K] sets the
    loop bandwidth and is the design knob studied in the paper's Figure 5. *)

type command = Hold | Advance | Retard

val command_of_int : int -> command

val n_commands : int

val n_states : Config.t -> int
(** [2K - 1] (counts [-(K-1) .. K-1]). *)

val encode : Config.t -> int -> int
(** Encode a count value; raises [Invalid_argument] outside [-(K-1), K-1]. *)

val decode : Config.t -> int -> int

val component : Config.t -> Fsm.Component.t
(** Port 0: the phase-detector output (card 3). *)
