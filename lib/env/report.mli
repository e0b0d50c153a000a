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
}

val run : ?solver:Composed.solver -> ?ctx:Cdr.Context.t -> Env.t -> Cdr.Config.t -> Composed.t * t
(** Build on the context's backend ([ctx.backend], [`Csr] by default) and
    solve (default [`Multigrid]) under the context's
    pool/trace/cache/tolerance, then aggregate. Returns the composed model
    too so callers can reuse it (warm solves, extra functionals). *)

val pp : Format.formatter -> t -> unit
