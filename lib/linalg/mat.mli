(** Dense row-major matrices.

    Used for small systems only (direct solves at the coarsest multigrid
    level, reference computations in tests); large transition matrices live in
    {!Sparse.Csr}. *)

type t

val create : rows:int -> cols:int -> t
(** Zero matrix. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t

val identity : int -> t

val of_arrays : float array array -> t
(** Copies its input. Raises [Invalid_argument] on ragged rows. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val copy : t -> t

val transpose : t -> t

val mul : t -> t -> t

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [a * x]. *)

val vec_mul : Vec.t -> t -> Vec.t
(** [vec_mul x a] is the row vector [x * a]. *)

val row : t -> int -> Vec.t
(** Copy of a row. *)

val sub : t -> t -> t

val scale : float -> t -> t

val equal : ?tol:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
