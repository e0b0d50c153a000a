(** First-class transition operators: the abstraction that lets the
    stationary solvers run against either a materialized CSR matrix or a
    matrix-free sum of Kronecker terms.

    An operator is a row-stochastic matrix [M] exposed only through its
    action: [x -> x * M] (the power-iteration and smoothing kernel, via
    {!vec_mul_into}), row sums, and per-row entry enumeration (for
    aggregation and flux computations). Backends own their private apply
    state — the {!Kron_backend} a reusable two-buffer shuffle workspace —
    so callers never allocate per iteration and never see representation
    details.

    Backend contract: for the same model, the two backends agree within
    solver tolerance but {e not} bitwise — the Kronecker shuffle sums float
    contributions in a different order than CSR row dots. The CSR backend
    itself is bitwise-identical to the historical direct-CSR solver paths. *)

type kind = [ `Csr | `Kron ]

val kind_string : kind -> string

val kind_of_string : string -> kind option

type t

module Csr_backend : sig
  val create : Sparse.Csr.t -> t
  (** Wraps an existing square matrix; all operations route to the exact
      kernels the solvers used before the abstraction existed, so results
      are bitwise identical to those paths. Raises [Invalid_argument] on a
      non-square matrix. *)
end

module Kron_backend : sig
  val create : ?label:string -> Sparse.Kron_op.t -> t
  (** Matrix-free backend; the product matrix is never formed. The operator
      owns one reusable apply workspace, so a single operator value must
      only be applied from one domain at a time (solvers apply sequentially
      and parallelize inside the apply via [?pool]). *)
end

val dim : t -> int

val kind : t -> kind

val label : t -> string
(** Human-readable description for reports and logs. *)

val nnz_estimate : t -> int
(** Stored nonzeros for a CSR operator; the materialization upper bound
    ([Kron_op.nnz_bound]) for a Kronecker operator. *)

val vec_mul_into : ?pool:Cdr_par.Pool.t -> t -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [vec_mul_into op x y] stores [x * M] into [y]. Allocation-free after
    the operator's first apply. With [?pool], parallel over a fixed slot
    grid: bit-identical across job counts for a given backend. [x] and [y]
    must not alias. *)

val row_sums : t -> Linalg.Vec.t
(** Exact row sums, computed without applying the operator; lazy. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row op i emit] enumerates the entries of row [i]. Duplicate
    columns may be emitted (a Kronecker operator emits one entry per term
    contribution); consumers sum them in emission order. Safe to call
    concurrently from several domains. *)

val iter_entries : t -> (int -> int -> float -> unit) -> unit
(** {!iter_row} over every row in ascending order. *)

val to_csr : t -> Sparse.Csr.t
(** The represented matrix as CSR. Free for a CSR operator; materializes
    the full product for a Kronecker operator — tests and small models
    only. *)

val check_stochastic : ?tol:float -> t -> (unit, string) result
(** Verifies every row sums to 1 within [tol] (default [1e-9]) using
    {!row_sums}; the error names the worst row. *)
