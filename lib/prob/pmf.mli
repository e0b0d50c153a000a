(** Finite discrete probability mass functions over integer-indexed atoms.

    Atoms carry an integer label (e.g. a grid offset in units of the phase
    discretization step, or an FSM input symbol) and a probability. All
    constructors normalize and validate; probabilities are strictly positive
    in the stored support. *)

type t = private { atoms : (int * float) array (* sorted by label, probs > 0, sum 1 *) }

val create : (int * float) list -> t
(** Merges duplicate labels, drops zero-probability atoms, normalizes.
    Raises [Invalid_argument] on negative weights or an all-zero list. *)

val point : int -> t
(** Deterministic value. *)

val uniform : int list -> t

val bernoulli : p:float -> int -> int -> t
(** [bernoulli ~p a b] takes value [a] with probability [p], else [b]. *)

val support : t -> int array

val prob : t -> int -> float
(** Probability of a label ([0.] if absent). *)

val cardinal : t -> int

val iter : t -> (int -> float -> unit) -> unit

val fold : t -> init:'a -> f:('a -> int -> float -> 'a) -> 'a

val mean : t -> float

val variance : t -> float

val min_support : t -> int

val max_support : t -> int

val map_labels : (int -> int) -> t -> t
(** Pushforward; colliding labels are merged. *)

val convolve : t -> t -> t
(** Distribution of the sum of independent draws. *)

val cdf_le : t -> int -> float
(** [cdf_le p x] is [P(X <= x)]. *)

val total_variation : t -> t -> float

val equal : ?tol:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
