(** The CDR chain as a matrix-free Kronecker operator.

    Built from the same marginalized probability tables as the direct CSR
    construction ({!Model.direct_tables}), but never materializing the
    product: one Kronecker term [D_t (x) C_(o,cmd) (x) G_(t,o,cmd)] per
    surviving (transition flag, detector output, counter command) triple.
    Storage is the factor matrices — O(n_data² + n_counter² + m · |n_r|)
    per term — against the CSR model's O(states · successors); that is what
    lets stationary solves reach the paper's ~1e6-state regimes (ROADMAP
    item 1) on a laptop.

    The operator acts on the {e full} product space
    [n_data * n_counter * grid_points] with the direct path's packing
    [((d * n_counter) + c) * m + p], not the BFS-reachable subset: transient
    never-reached states carry stationary mass 0, so BER and slip
    functionals agree with the CSR model to solver tolerance (the property
    tests pin this). *)

type t = {
  config : Config.t;
  kron : Sparse.Kron_op.t;
  op : Cdr_op.t;
  n_states : int; (* full product space *)
  n_data : int;
  n_counter : int;
  m : int; (* phase grid points *)
  build_seconds : float;
  mutable iad : Markov.Op_multigrid.setup option;
      (* memoized IAD solver state (partition, coarse hierarchy, workspaces,
         aggregated pattern): the first [`Multigrid] solve prepares it, every
         later solve on this model reuses it — repeated service queries pay
         the symbolic cost once. Owned by the model: one solve at a time. *)
}

val build : Config.t -> t
(** Builds the factor matrices and verifies row-stochasticity exactly (via
    the factorized row sums — no apply); raises [Invalid_argument] if the
    factorization fails the check. Runs in a ["kron_model.build"] span and
    counts in the ["model.builds"] metric with [via=kron]. *)

val operator : t -> Cdr_op.t

val n_states : t -> int

val data_code : t -> int -> int

val counter_code : t -> int -> int

val phase_bin : t -> int -> int

val index_of : t -> data:int -> counter:int -> phase:int -> int option
(** Always [Some] for in-range codes — the full space has every triple. *)

type solver = Model.solver
(** The one solver type; a matrix-free operator runs [`Multigrid] and
    [`Power], and rejects [`Gauss_seidel] ({!solve_op}). *)

val solve_op :
  solver:solver ->
  ctx:Context.t ->
  hierarchy:(unit -> Markov.Partition.t list) ->
  iad:(unit -> Markov.Op_multigrid.setup option) ->
  set_iad:(Markov.Op_multigrid.setup -> unit) ->
  Cdr_op.t ->
  Markov.Solution.t
(** The stationary solve of a matrix-free operator — the one path behind
    {!solve} and the composed chain's Kronecker representation. [`Power]
    runs the operator power iteration directly; [`Multigrid] runs
    {!Markov.Op_multigrid} with the first [hierarchy ()] level as the
    aggregation partition and the rest solving the coarse chain (falling
    back to power when the hierarchy is empty, i.e. the operator fits a
    direct solve). The IAD setup is memoized by the caller: [iad ()] is
    reused when it {!Markov.Op_multigrid.matches} the operator, otherwise a
    fresh setup is prepared and handed to [set_iad] before the solve.
    [`Gauss_seidel] raises [Invalid_argument] (no matrix-free sweep). Uses
    [ctx]'s tolerance, warm start (ignored on a length mismatch), trace and
    pool; [ctx.cancel] is polled by the [`Multigrid] path only. *)

val solve : ?solver:solver -> ?ctx:Context.t -> t -> Markov.Solution.t
(** {!solve_op} on the model's operator with {!hierarchy} and the [iad]
    memo, inside a ["model.solve"] span. Default [`Multigrid], as for
    {!Model.solve}. *)

val box_hierarchy : lead:int -> n_counter:int -> m:int -> Markov.Partition.t list
(** {!Model.keyed_hierarchy}'s coarsening (halve phase bins, then the
    counter) on a full product space of [lead * n_counter * m] states packed
    [((l * n_counter) + c) * m + p], where [lead] counts every coordinate
    that is never lumped. The lumping maps are pure arithmetic. *)

val hierarchy : t -> Markov.Partition.t list
(** {!box_hierarchy} with the data states as the leading dimension. *)

val phase_marginal : t -> pi:Linalg.Vec.t -> Linalg.Vec.t
(** Stationary marginal over phase bins — feed to {!Ber.of_marginal}. *)

val slip_rate : t -> pi:Linalg.Vec.t -> float
(** {!Cycle_slip.flux} on the matrix-free operator — the {!Cycle_slip.rate}
    functional without the CSR. *)

val mean_time_between_slips : t -> pi:Linalg.Vec.t -> float
(** {!Cycle_slip.mean_of_rate} of {!slip_rate}. *)
