(** Gaussian distribution utilities built on a hand-rolled [erfc].

    The zero-mean white noise [n_w] of the paper (data eye-opening jitter)
    is Gaussian; its tails give the bit-error probability and its
    discretization feeds the FSM composition. *)

val erf : float -> float

val erfc : float -> float
(** Complementary error function, accurate to ~1e-15 over the full range
    (series near 0, continued fraction in the tails), so that BERs down to
    1e-300 are representable. *)

val cdf : mean:float -> sigma:float -> float -> float

val q : float -> float
(** Standard normal tail [Q(x) = P(N(0,1) > x)]. *)

val tail_beyond : sigma:float -> float -> float
(** [tail_beyond ~sigma x] is [P(|N(0,sigma^2)| > x)] for [x >= 0]. *)

val discretize : sigma:float -> step:float -> ?n_sigmas:float -> unit -> Pmf.t
(** Discretize [N(0, sigma^2)] on the lattice [{k * step}]: atom [k] receives
    the probability mass of the interval [((k-1/2)*step, (k+1/2)*step)],
    truncated at [n_sigmas] (default 6) standard deviations and renormalized.
    [sigma = 0.] yields the point mass at [0]. *)
