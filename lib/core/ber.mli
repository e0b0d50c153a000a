(** Bit-error-rate evaluation from the stationary phase-error distribution.

    A detection error occurs when the sampling instant, offset from the data
    eye center by [Phi + n_w], falls outside half a bit interval:
    [|Phi_k + n_w(k)| > 1/2]. The BER is the stationary probability of that
    event — the "integral of the tails" of the paper's plotted density.

    Two evaluations are provided and cross-checked in tests:
    - {!of_marginal}: exact Gaussian tail integral
      [sum_phi rho(phi) (Q((1/2-phi)/sigma) + Q((1/2+phi)/sigma))], able to
      resolve BERs down to the underflow limit (~1e-300);
    - {!of_convolution}: mass of the discrete convolution [rho * n_w]
      outside [+-1/2] — the quantity read directly off the paper's figures,
      limited by the discretization of [n_w]. *)

type result = {
  ber : float;
  phase_density : Linalg.Vec.t; (* stationary pmf over phase bins *)
  eye_density : (float * float) array;
      (* (phase value, probability) of Phi + n_w on the extended grid *)
}

val tail_probability : Config.t -> phase:float -> float
(** [P(|phi + n_w| > 1/2)] for a fixed phase error. *)

val of_marginal : Config.t -> rho:Linalg.Vec.t -> float
(** BER from a phase-bin marginal (length [grid_points]). *)

val of_convolution : Config.t -> rho:Linalg.Vec.t -> float

val eye_density : Config.t -> rho:Linalg.Vec.t -> (float * float) array
(** The density of [Phi + n_w] the paper plots next to the phase-error
    density (discrete convolution on the [n_w] lattice). *)

val of_density : Config.t -> rho:Linalg.Vec.t -> result
(** {!of_marginal} and {!eye_density} of one phase-bin marginal, whatever
    representation of the chain it was read from. *)

val analyze :
  ?solver:[ `Multigrid | `Power | `Gauss_seidel ] ->
  ?ctx:Context.t ->
  Model.t ->
  result * Markov.Solution.t
(** Solve for the stationary distribution ({!Model.solve} under [ctx]) and
    evaluate everything. *)
