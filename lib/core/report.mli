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

val run :
  ?solver:[ `Multigrid | `Power | `Gauss_seidel ] -> ?ctx:Context.t -> Config.t -> t
(** Build, solve, analyze, and time everything: {!run_model} on a fresh
    {!Model.build}. *)

val run_model :
  ?solver:[ `Multigrid | `Power | `Gauss_seidel ] ->
  ?ctx:Context.t ->
  Model.t ->
  t * Markov.Solution.t
(** Solve an already built model under [ctx] ({!Model.solve}), analyze it,
    and also return the full stationary solution — the entry point for
    callers that need more functionals of it (cycle slips) and for warm
    sweeps, whose context threads the previous point's stationary vector
    ([ctx.init]) and a setup cache ([ctx.cache]). The solve runs with a
    fresh {!Cdr_obs.Trace.t} (returned in [trace]) that replaces
    [ctx.trace]; [iterations] is populated from that trace uniformly for
    all three solver choices, so V-cycles, power steps and Gauss-Seidel
    sweeps are counted the same way. [matrix_form_seconds] reports the
    model's own build time, as recorded by {!Model.build} or
    {!Model.rebuild}. *)

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
