(** Reward (cost) models on Markov chains.

    The general form of "system performance measures" the paper derives from
    the stationary vector: attach a per-step reward to states (or
    transitions) and compute long-run averages (the accumulated reward to a
    target set with reward [1] is {!Passage.mean_hitting_times}). BER is the special case
    [reward i = P(error | state i)]; power, activity factors, or correction
    counts are others. *)

val long_run_average : pi:Linalg.Vec.t -> reward:(int -> float) -> float
(** [sum_i pi_i r_i] — the steady-state reward rate per step. *)

val transition_rate : Chain.t -> pi:Linalg.Vec.t -> reward:(int -> int -> float) -> float
(** Long-run average of a per-transition reward:
    [sum_ij pi_i P_ij r_ij] (e.g. counting phase corrections: [r = 1] on
    correction edges). *)
