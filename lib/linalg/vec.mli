(** Dense vectors of floats.

    A vector is a plain [float array]; this module collects the numerical
    kernels used throughout the repository so that accumulation strategies
    (compensated sums) live in one place. *)

type t = float array

val create : int -> t
(** [create n] is the zero vector of dimension [n]. *)

val init : int -> (int -> float) -> t

val copy : t -> t

val dim : t -> int

val scale_in_place : float -> t -> unit

val add : t -> t -> t

val sub : t -> t -> t

val sum : t -> float
(** Compensated (Kahan) sum of all entries. *)

val dist_l1 : t -> t -> float
(** [dist_l1 x y] is the compensated l1 norm of [x - y], without
    allocating the difference. *)

val normalize_l1 : t -> unit
(** Scale in place so entries sum to one. Raises [Invalid_argument] if the
    entry sum is zero or not finite. *)

val map2 : (float -> float -> float) -> t -> t -> t

val for_all : (float -> bool) -> t -> bool

val pp : Format.formatter -> t -> unit
