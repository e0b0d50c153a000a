(** Cycle slips: the phase error wrapping around [+-1/2] — the recovered
    clock slipping a full bit with respect to the data, the synchronization
    failure whose mean recurrence time the paper computes.

    Two independent estimates:
    - {!rate}: stationary probability flux across the wrap boundary
      (slips per bit interval); its inverse is the mean time between slips
      in steady state;
    - {!mean_first_slip_time}: expected number of bit intervals until the
      first slip starting from the locked state, via a first-passage
      computation on the chain with the boundary-crossing transitions
      redirected to an absorbing state. *)

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

val mean_first_slip_time : ?tol:float -> Model.t -> float
(** From the canonical initial state (counter 0, phase 0). *)
