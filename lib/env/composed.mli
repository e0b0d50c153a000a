(** The composed environment x CDR chain, env (x) CDR.

    Global state = (regime, data, counter, phase bin), regime slowest:
    [P((e,s) -> (e',s')) = S[e][e'] * P_e[s -> s']]. Built either as a
    materialized CSR chain ({!Cdr.Model.build_reachable} over the
    per-regime configurations and the switching rows) or matrix-free as extra
    Kronecker factors: each regime's [D (x) C (x) G] term sum lifted by a
    leading R x R row-selector factor through {!Sparse.Kron_op.lift}, so
    the existing operator solvers run the composed chain unchanged.

    All functionals aggregate on the composed index — the regime-weighted
    BER is the exact stationary expectation [E[tail(config_E, Phi)]], which
    the naive per-regime {!mixture_ber} only approaches in the
    slow-switching limit. *)

type repr = Chain of Markov.Chain.t | Kron of Sparse.Kron_op.t

type t = {
  env : Env.t;
  base : Cdr.Config.t;
  configs : Cdr.Config.t array; (* per-regime effective configurations *)
  n_states : int;
  n_regimes : int;
  n_data : int;
  n_counter : int;
  m : int; (* phase grid points *)
  op : Cdr_op.t;
  repr : repr;
  regime_code : int -> int; (* composed index -> coordinates *)
  data_code : int -> int;
  counter_code : int -> int;
  phase_code : int -> int;
  build_seconds : float;
  mutable iad : Markov.Op_multigrid.setup option;
      (* memoized IAD solver state for the [`Kron] repr, as in
         {!Cdr.Kron_model}: prepared on the first multigrid solve, reused
         (or transplanted by the service engine) afterwards *)
}

val build : ?backend:Cdr_op.kind -> Env.t -> Cdr.Config.t -> t
(** Validates the environment and the base config, derives the per-regime
    configurations, and assembles the composed representation (default
    [`Csr]). The [`Csr] path composed with {!Env.identity} is bitwise equal
    to {!Cdr.Model.build_direct} on the base config; the [`Kron] path
    verifies row-stochasticity exactly via the factorized row sums. Runs in
    an ["env.build"] span and counts in ["env.builds"]. *)

val backend : t -> Cdr_op.kind

val n_states : t -> int

val operator : t -> Cdr_op.t

val hierarchy : t -> Markov.Partition.t list
(** The base chain's coarsening (halve phases, then the counter) on the
    composed space, with regime and data as one leading coordinate that is
    never lumped: the regime coordinate carries the modulation — aggregating
    it away is exactly the mixture approximation the composed model exists
    to avoid. {!Cdr.Model.keyed_hierarchy} on the [`Csr] repr,
    {!Cdr.Kron_model.box_hierarchy} on the [`Kron] repr. *)

type solver = Cdr.Model.solver

val solve : ?solver:solver -> ?ctx:Cdr.Context.t -> t -> Markov.Solution.t
(** Stationary distribution of the composed chain (default [`Multigrid]),
    inside an ["env.solve"] span. The [`Csr] repr runs
    {!Cdr.Model.solve_chain} (including the context's {!Cdr.Solver_cache});
    the [`Kron] repr runs {!Cdr.Kron_model.solve_op} with the memoized IAD
    setup, and rejects [`Gauss_seidel] with [Invalid_argument]. *)

val regime_probs : t -> pi:Linalg.Vec.t -> float array
(** Stationary regime marginal [P(E = e)]. *)

val phase_marginal : t -> pi:Linalg.Vec.t -> Linalg.Vec.t
(** Stationary phase-error marginal over the composed law. *)

val regime_conditional_densities : t -> pi:Linalg.Vec.t -> Linalg.Vec.t array
(** Per regime, the conditional phase-error density
    [P(Phi = p | E = e)] (all-zero for a regime with no stationary mass). *)

val regime_ber : t -> pi:Linalg.Vec.t -> float array
(** Per regime, the BER of the conditional density under that regime's
    effective config — the tail weight uses the regime's own [sigma_w]. *)

val ber : t -> pi:Linalg.Vec.t -> float
(** Regime-weighted BER: [sum_e P(E = e) * regime_ber e], the exact
    composed stationary expectation. *)

val slip_rate : t -> pi:Linalg.Vec.t -> float
(** {!Cdr.Cycle_slip.flux} on the composed operator. *)

val mean_bits_between_slips : t -> pi:Linalg.Vec.t -> float

val mixture_ber :
  ?solver:solver ->
  ?ctx:Cdr.Context.t ->
  t ->
  float array * float
(** The naive approximation: each regime's CDR solved standalone
    ({!Cdr.Model.build} + {!Cdr.Ber.analyze}), BERs weighted by
    {!Env.stationary}. Returns [(per_regime_bers, weighted)]. Exact in the
    slow-switching limit; the bursty-jitter study measures its error under
    fast switching. *)
