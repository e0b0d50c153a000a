(** Lock acquisition: how long the loop takes to pull the phase error into
    the locked region after power-up or a lost-lock event.

    A mean-first-passage computation on the composed chain: from each initial
    phase offset, the expected number of bit intervals until the phase error
    first enters the band [|Phi| <= lock_band] (with the counter and data
    statistics starting anywhere — the reported figure takes the worst and
    average case over those coordinates). *)

type t = {
  lock_band_ui : float;
  mean_from_worst_phase : float; (* worst initial phase, averaged over FSM coords *)
  mean_from_half_ui : float; (* starting at the eye edge, Phi = -1/2 *)
  per_phase_bin : (float * float) array; (* (phase, mean acquisition time) *)
}

val analyze : ?lock_band_ui:float -> ?tol:float -> Model.t -> t
(** Default [lock_band_ui] is one selector step [G]. The hitting times come
    from {!Markov.Passage.mean_hitting_times} (every start state is needed,
    and lock events are frequent), so this raises
    {!Markov.Passage.Not_converged} where that iteration runs out of
    sweeps. *)

val pp : Format.formatter -> t -> unit
