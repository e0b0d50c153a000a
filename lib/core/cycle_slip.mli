(** Cycle slips: the phase error wrapping around [+-1/2] — the recovered
    clock slipping a full bit with respect to the data, the synchronization
    failure whose mean recurrence time the paper computes.

    Two quantities, both from stationary solves:
    - {!rate}: stationary probability flux across the wrap boundary
      (slips per bit interval); its inverse is the mean time between slips
      in steady state;
    - {!mean_first_slip_time}: expected number of bit intervals until the
      first slip starting from the locked state, by the renewal identity on
      the restart chain (see {!first_slip}). *)

val flux : Config.t -> phase:(int -> int) -> Cdr_op.t -> pi:Linalg.Vec.t -> float
(** [flux cfg ~phase op ~pi]: the stationary probability flux through the
    transitions of [op] whose phase coordinate ([phase i], a bin of [cfg]'s
    grid) wraps around [+-1/2] ({!Markov.Passage.flux}) — slips per bit
    interval. The one slip functional behind {!rate},
    {!Kron_model.slip_rate}, {!Freq_track.slip_rate} and the composed
    chain's [slip_rate]: any representation of any CDR chain that can
    decode a state's phase bin. *)

val mean_of_rate : float -> float
(** [1 / rate]; [infinity] when no slip transition carries mass. *)

val rate : Model.t -> pi:Linalg.Vec.t -> float
(** {!flux} on the model's CSR operator. *)

val mean_time_between : Model.t -> pi:Linalg.Vec.t -> float
(** {!mean_of_rate} of {!rate}. *)

val first_slip : ?ctx:Context.t -> Model.t -> float * Markov.Solution.t
(** [first_slip model] is [(t, sol)]: [t] the expected number of bit
    intervals until the first slip, started from the lock state
    {!Model.initial_state} (counter 0, zero phase error), and [sol] the
    stationary solve it came from, whose [converged] flag and residual
    certify [t].

    Method: the renewal identity. Every transition that crosses the
    [+-1/2] boundary is sent to the lock state instead of its real
    destination, which keeps every other entry of the TPM. The chain
    restarted this way regenerates at lock on every slip, so its cycles
    are independent copies of the first-slip time and
    [E_lock[T_slip] = 1 / (its stationary crossing flux)]. That is one
    {!Model.solve_chain} over {!Model.hierarchy} (same states, same codes)
    plus {!flux} on the original operator at the restart chain's
    stationary vector; no first-passage iteration, so rare slips cost no
    more than frequent ones.

    This is a from-lock quantity, not the steady-state one:
    {!mean_time_between} averages over the stationary phase distribution
    instead. Where slips are frequent the two differ (by a quarter in
    EXP-SLIP's most strongly driven row); as slips become rare they meet.

    Solved under [ctx] (default {!Context.default}): its tolerance, trace,
    pool and cancellation hook apply, and [ctx.init] warm-starts the solve
    (the model's own stationary vector is a good start: the restart chain
    differs from the model's only on the crossing entries). [ctx.cache] is
    not used: the restart pattern differs from the model's, so storing its
    setup would only evict the reusable stationary one. A firing
    [ctx.cancel] raises {!Markov.Multigrid.Cancelled}. *)

val mean_first_slip_time : ?ctx:Context.t -> Model.t -> float
(** [fst (first_slip ?ctx model)]. *)
