(** One-call environment analysis: build the composed chain, solve it, and
    evaluate every functional — the env analogue of {!Cdr.Report}. *)

type t = {
  env : Env.t;
  backend : Cdr_op.kind;
  n_states : int;
  iterations : int;
  residual : float;
  converged : bool;
  build_seconds : float;
  solve_seconds : float;
  regime_probs : float array;
  regime_ber : float array; (* conditional BER per regime *)
  ber : float; (* regime-weighted composed BER *)
  slip_rate : float;
  mean_bits_between_slips : float;
  phase_density : Linalg.Vec.t; (* composed phase-error marginal *)
  regime_densities : Linalg.Vec.t array; (* conditional densities *)
  trace : Cdr_obs.Trace.t; (* per-iteration residual trace of the solve *)
}

val run_model :
  ?solver:Composed.solver -> ?ctx:Cdr.Context.t -> Composed.t -> t * Markov.Solution.t
(** Solve an already built composed model (default [`Multigrid]) under the
    context's pool/cache/tolerance/cancellation, then aggregate; also
    returns the full stationary solution. The solve records into a fresh
    {!Cdr_obs.Trace.t} (returned in [trace]) that replaces [ctx.trace];
    [iterations] is the solution's own count. The service's ["env"] kind
    runs its cached model through this, once per degraded-retry attempt. *)

val run : ?solver:Composed.solver -> ?ctx:Cdr.Context.t -> Env.t -> Cdr.Config.t -> t
(** {!run_model} on a fresh {!Composed.build} on the context's backend
    ([ctx.backend], [`Csr] by default). *)

val pp : Format.formatter -> t -> unit
