(** Matrix-free Kronecker-structured operators.

    The paper's outlook for "more complex models" is to represent the
    transition matrix with hierarchical generalized Kronecker algebra instead
    of explicit sparse storage. This module provides the core primitive: the
    vector-Kronecker-product ("shuffle") algorithm computing
    [x (A_1 (x) A_2 (x) ... (x) A_k)] without ever forming the product
    matrix — O(n * sum_i nnz_i / n_i) per application instead of
    O(prod_i nnz_i). Sums of such terms model synchronizing events as in
    stochastic automata networks (Plateau). *)

type t
(** A sum of scaled Kronecker terms, all with the same product dimension. *)

val term : ?coeff:float -> Csr.t list -> t
(** One Kronecker term [coeff * A_1 (x) ... (x) A_k]. All factors must be
    square; raises [Invalid_argument] otherwise or on the empty list. *)

val sum : t list -> t
(** Concatenates the operands' term lists in order; O(total terms). Raises
    [Invalid_argument] on dimension mismatch or the empty list. *)

val lift : Csr.t -> t -> t
(** [lift a op] is [a (x) op]: every term gains [a] as a new leading
    (slowest-varying) factor, so the result has dimension
    [rows a * dim op]. Distributing the leading factor over the term list is
    O(terms) and shares all existing factor storage. [a] must be square and
    non-empty; raises [Invalid_argument] otherwise. *)

val dim : t -> int

val n_terms : t -> int

val nnz_bound : t -> int
(** Upper bound on the nonzero count of the materialized matrix:
    [sum over terms of prod_f nnz(A_f)]. Exact when no cancellation or
    column collision occurs; the basis of the "CSR bytes this operator
    avoids" estimate reported by the scaling bench. *)

type workspace
(** Two reusable length-[dim] ping-pong buffers for the factor sweep. One
    workspace serves any number of [apply_into] calls on the operator it was
    built for (sequentially — a workspace is not domain-safe); solvers
    allocate one per solve instead of two vectors per iteration. *)

val workspace : t -> workspace

val apply_into : ?pool:Cdr_par.Pool.t -> t -> ws:workspace -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [apply_into op ~ws x y] stores [x * M] into [y], where [M] is the
    represented matrix. Each term is one contraction per factor (the first
    reads [x] in place), each walking its factor's CSR arrays directly:
    without [?pool] a call allocates a few words, however large the
    operator, and all intermediates live in [ws].
    [x] and [y] must not alias each other or the workspace buffers. With
    [?pool] each middle contraction is parallelized over a fixed slot grid
    (a function of the operand shapes only, never the job count): slots own
    disjoint output segments and every element accumulates its contributions
    in the serial order, so pooled results are bit-identical to serial ones
    for any job count — the same discipline as [Csr.vec_mul_into]. *)

val apply : ?pool:Cdr_par.Pool.t -> t -> Linalg.Vec.t -> Linalg.Vec.t
(** [apply op x = x * M]; allocates a fresh workspace and result (use
    {!apply_into} in iteration loops). *)

val row_sums : t -> Linalg.Vec.t
(** Exact row sums without applying the operator: the Kronecker row sum
    factorizes as the tensor product of per-factor row-sum vectors. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row op i emit] enumerates the entries of global row [i]: terms in
    order, and within a term the lexicographic cross product of factor-row
    entries, each value the left-to-right product
    [((coeff * a_1) * a_2) * ...]. Duplicate columns are emitted separately
    (consumers such as [Csr.assemble] sum them in emission order). Walks
    the factors' CSR arrays directly: no index array and no closure per row
    or entry. Safe to call concurrently from several domains. *)

val to_csr : t -> Csr.t
(** Materialize (for tests and small operators). *)
