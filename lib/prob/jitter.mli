(** Jitter amplitude distributions of the paper, on the phase grid.

    The paper models all incoming-data jitter with two white processes:

    - [n_w]: zero-mean Gaussian "eye opening" jitter, uncorrelated bit to
      bit — never stored in the Markov state, it is integrated out into
      phase-detector decision probabilities and the BER tail integral;
    - [n_r]: bounded, non-zero-mean, non-Gaussian drift whose random part
      accumulates on the phase error (frequency offset / wander / a
      sinusoidal-jitter equivalent). [n_r] lives on the phase grid, which is
      why the grid must resolve its small steps.

    Grid convention: labels are offsets in units of the grid step [delta];
    the physical amplitude of label [k] is [k * delta]. *)

type white = { sigma : float }
(** Specification of [n_w]: the standard deviation in unit-interval units. *)

val drift :
  max_steps:int -> mean_steps:float -> ?shape:[ `Peaked | `Uniform | `Ramp ] -> unit -> Pmf.t
(** [drift ~max_steps ~mean_steps ()] builds an [n_r] pmf supported on
    [0..max_steps] grid offsets with the requested mean. [`Peaked] (default)
    concentrates mass at 0 with a thin positive tail, the SONET-flavoured
    shape of the paper's examples; [`Uniform] spreads the positive mass
    evenly; [`Ramp] makes it linearly decaying. Raises [Invalid_argument]
    when the mean is not representable ([0 <= mean_steps <= max_steps]). *)

val max_wander_rms : max_steps:int -> float
(** Largest rms (in steps) representable by {!symmetric_wander}'s triangular
    profile at the given support bound. *)

val symmetric_wander : max_steps:int -> rms_steps:float -> Pmf.t
(** Zero-mean bounded random-walk increment (cumulative jitter): a discrete
    triangular-ish pmf on [-max_steps..max_steps] with the requested rms. *)

val sinusoidal_equivalent : amplitude_steps:int -> Pmf.t
(** Amplitude distribution of a sampled sinusoid of the given peak amplitude:
    the arcsine law discretized on [-amplitude_steps..amplitude_steps]. The
    paper notes deterministic sinusoidal jitter can be mimicked by assigning
    [n_r]'s amplitude distribution appropriately. *)
