(** Second-order loop: phase selection plus frequency tracking.

    The first-order loop of the paper leaves any constant frequency offset
    (the mean of [n_r]) to be fought by phase corrections alone — that is
    what breaks the long-counter designs in Figure 5. Practical CDRs add a
    second accumulator: a slow counter watches the *direction bias* of the
    phase corrections and trims a frequency register that cancels the offset
    directly.

    This module builds that architecture as two extra FSMs wired into the
    same network (no new formalism needed — the point of the paper's
    compositional model):

    - a frequency-adaptation counter of length [adapt_length] counting
      RETARD(+1)/ADVANCE(-1) commands, emitting a trim on overflow;
    - a saturating frequency register holding [f] in [-max_f .. max_f] grid
      bins per bit, subtracted from the phase error every bit interval.

    The composed chain has [(2 max_f + 1) * (2 adapt_length - 1)] times more
    states than the first-order model. *)

type params = { max_f : int; adapt_length : int }

type t = {
  config : Config.t;
  params : params;
  chain : Markov.Chain.t;
  n_states : int;
  phase_bin : int -> int;
  freq_value : int -> int; (* frequency register, bins per bit *)
  build_seconds : float;
}

val build : ?params:params -> Config.t -> t
(** [params] defaults to [max_f = 1], [adapt_length = 4]. *)

val solve : ?tol:float -> t -> Markov.Solution.t
(** Gauss-Seidel (the composed chain has no phase-only structured hierarchy
    once the frequency state couples in; the generic solver is used). *)

val phase_marginal : t -> pi:Linalg.Vec.t -> Linalg.Vec.t

val freq_marginal : t -> pi:Linalg.Vec.t -> (int * float) array
(** Stationary distribution of the frequency register value. *)

val ber : t -> pi:Linalg.Vec.t -> float

val slip_rate : t -> pi:Linalg.Vec.t -> float
