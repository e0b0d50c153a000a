(** Immutable compressed-sparse-row matrices.

    The workhorse representation for Markov-chain transition probability
    matrices: row-major storage matches both the compositional construction
    (one reachable state at a time) and the [x -> x*P] products dominating the
    stationary solvers. *)

type t = private {
  rows : int;
  cols : int;
  row_ptr : int array; (* length rows+1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  values : float array; (* length nnz *)
}

val unsafe_make :
  rows:int -> cols:int -> row_ptr:int array -> col_idx:int array -> values:float array -> t
(** Validates the structural invariants (monotone [row_ptr], in-range sorted
    column indices) and raises [Invalid_argument] when violated. *)

val of_dense : ?drop_tol:float -> Linalg.Mat.t -> t

val to_dense : t -> Linalg.Mat.t

val identity : int -> t

val rows : t -> int

val cols : t -> int

val nnz : t -> int

val get : t -> int -> int -> float
(** Binary search within the row; absent entries read as [0.]. *)

val row_index : t -> int -> int -> int
(** Position of entry [(i, j)] in the value array, or [-1] when the pattern
    has no such entry. The in-place refill primitive behind
    [Cdr.Model.rebuild]'s flat row-refill path. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit

val iter : t -> (int -> int -> float -> unit) -> unit

val fold : t -> init:'a -> f:('a -> int -> int -> float -> 'a) -> 'a

val mul_vec : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [mul_vec a x = a * x]. *)

val vec_mul : ?pool:Cdr_par.Pool.t -> Linalg.Vec.t -> t -> Linalg.Vec.t
(** [vec_mul x a = x * a] (row vector times matrix); the kernel of power
    iteration on a row-stochastic matrix. *)

val vec_mul_into : ?pool:Cdr_par.Pool.t -> Linalg.Vec.t -> t -> Linalg.Vec.t -> unit
(** [vec_mul_into x a y] stores [x * a] into [y]; without [?pool] it does not
    allocate. With [?pool], row slots scatter into per-slot partial outputs
    merged by a fixed-shape tree reduction: deterministic across job counts
    (pooled jobs=1 and jobs=N agree bitwise), though the float-summation
    grouping differs from the serial path's by design — see DESIGN.md. *)

val same_pattern : t -> t -> bool
(** Same dimensions and the same sparsity structure ([row_ptr] and [col_idx]
    equal). Physically shared structure arrays (see {!refill}) short-circuit
    to [true] without an element-wise compare. *)

val refill : t -> float array -> t
(** [refill m values] is the matrix with [m]'s sparsity pattern and the given
    stored values: the symbolic work of a fresh construction (sorting,
    merging, index validation) is skipped entirely, and [row_ptr]/[col_idx]
    are physically shared with [m] — so [same_pattern m (refill m v)] is an
    O(1) check and pattern-keyed solver setups (see [Markov.Multigrid.setup])
    can be reused across refills. The array is owned by the result; raises
    [Invalid_argument] on a length mismatch or a non-finite value. *)

val assemble :
  ?pool:Cdr_par.Pool.t -> rows:int -> cols:int -> (int -> (int -> float -> unit) -> unit) -> t
(** [assemble ~rows ~cols row] builds a matrix from a per-row enumerator:
    [row i emit] must call [emit j v] once per (not necessarily distinct)
    entry of row [i]. Assembly is two symbolic passes plus a value pass —
    count distinct columns per row, fill and sort [col_idx], then accumulate
    values directly into the final array. Duplicate columns are summed {e in
    emission order}, exactly as a per-row accumulator would, and no
    intermediate COO/hashtable/list storage exists at any point.

    With [?pool] the value pass runs rows in parallel: rows write disjoint
    segments and each entry's duplicates still sum in emission order, so the
    result is bit-identical for every job count (and to the serial path).
    [row] is then called concurrently from several domains for distinct [i]
    and must be safe under that (pure lookups into immutable tables are).
    The enumerator is invoked exactly three times per row. *)

val transpose : t -> t

val map : (float -> float) -> t -> t
(** Structure-preserving map over stored values. *)

val row_sums : t -> Linalg.Vec.t

val add : t -> t -> t

val equal : ?tol:float -> t -> t -> bool

val pp_stats : Format.formatter -> t -> unit
(** One-line [rows x cols, nnz, fill, bandwidth] summary. *)
