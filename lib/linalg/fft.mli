(** Radix-2 fast Fourier transform.

    Used to turn phase-error autocorrelations into jitter power spectral
    densities (recovered-clock jitter specifications are often spectral
    masks). Self-contained: complex values are (re, im) array pairs. *)

val transform : re:float array -> im:float array -> unit
(** In-place forward DFT of a power-of-two-length signal:
    [X_k = sum_n x_n exp(-2 pi i k n / N)]. Raises [Invalid_argument] when
    lengths differ or are not a power of two. *)

val inverse : re:float array -> im:float array -> unit
(** In-place inverse DFT (normalized by [1/N]). *)

val next_power_of_two : int -> int

val is_power_of_two : int -> bool
