(** Paper-style experiment reports.

    The figures in the paper carry two annotation lines around each density
    plot; {!header_line} and {!footer_line} reproduce them:

    {v
    COUNTER: 8  STDnw: 5.0e-02  MAXnr: 1.6e-02  BER: 2.9e-17
    Size: 30198  Iter: 12  Matrixformtime: 0.15 mins  Solvetime: 0.42 mins
    v} *)

type t = {
  config : Config.t;
  ber : float;
  size : int;
  iterations : int; (* outer solver iterations, from the convergence trace *)
  matrix_form_seconds : float;
  solve_seconds : float;
  phase_density : Linalg.Vec.t;
  eye_density : (float * float) array;
  trace : Cdr_obs.Trace.t; (* per-iteration residual trace of the solve *)
}

type model = Csr of Model.t | Kron of Kron_model.t
(** A built chain in either representation: the materialized CSR chain
    over the reachable set, or the matrix-free Kronecker operator over the
    full product space. *)

val build : Context.t -> Config.t -> model
(** Builds on [ctx.backend]: {!Model.build} (with [ctx.pool]) for [`Csr],
    {!Kron_model.build} for [`Kron]. *)

val operator : model -> Cdr_op.t

val mean_time_between_slips : model -> pi:Linalg.Vec.t -> float
(** {!Cycle_slip.mean_time_between} or {!Kron_model.mean_time_between_slips}:
    the one slip flux ({!Cycle_slip.flux}) on the model's operator,
    inverted. *)

val run :
  ?solver:[ `Multigrid | `Power | `Gauss_seidel ] -> ?ctx:Context.t -> Config.t -> t
(** Build, solve, analyze, and time everything: {!run_model} on a fresh
    {!build} on the context's backend ([`Csr] by default). *)

val run_model :
  ?solver:[ `Multigrid | `Power | `Gauss_seidel ] ->
  ?ctx:Context.t ->
  model ->
  t * Markov.Solution.t
(** Solve an already built model of either representation under [ctx]
    ({!Model.solve} or {!Kron_model.solve}, both defaulting here to
    [`Multigrid]; [`Gauss_seidel] on a [Kron] model raises
    [Invalid_argument]), analyze it ({!Ber.of_density}), and also return
    the full stationary solution — the entry point for callers that need
    more functionals of it (cycle slips) and for warm sweeps, whose context
    threads the previous point's stationary vector ([ctx.init]) and a setup
    cache ([ctx.cache]). The solve runs with a fresh {!Cdr_obs.Trace.t}
    (returned in [trace]) that replaces [ctx.trace]; [iterations] is
    populated from that trace uniformly for every solver and backend, so
    V-cycles, IAD cycles, power steps and Gauss-Seidel sweeps are counted
    the same way. [matrix_form_seconds] reports the model's own build time,
    as recorded by its builder. *)

val header_line : t -> string

val footer_line : t -> string

val density_table : ?max_rows:int -> t -> string
(** The plotted series as text: phase, stationary density of [Phi], density
    of [Phi + n_w]. Down-sampled to [max_rows] rows (default 33). *)

val pp : Format.formatter -> t -> unit
(** Header, ASCII density sketch, footer. *)

val to_csv : t -> string
(** The full (non-down-sampled) density series as CSV with a header row:
    [phase,rho_phi,rho_phi_plus_nw] — for external plotting. *)
