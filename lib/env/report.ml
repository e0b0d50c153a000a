(* The Context-threaded entry point: build the composed model, solve it,
   and evaluate every environment functional — the env analogue of
   {!Cdr.Report.run}. The CLI (--env/--env-file), the service's [env]
   request kind and the bursty-jitter example all consume this one
   record. *)

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
  regime_ber : float array;
  ber : float;
  slip_rate : float;
  mean_bits_between_slips : float;
  phase_density : Linalg.Vec.t;
  regime_densities : Linalg.Vec.t array;
  trace : Cdr_obs.Trace.t;
}

let run_model ?(solver = `Multigrid) ?(ctx = Cdr.Context.default) composed =
  let trace = Cdr_obs.Trace.create ~name:(Cdr.Model.solver_name (solver :> Cdr.Model.solver)) () in
  (* as in {!Cdr.Report.run_model}, the report owns its convergence trace *)
  let ctx = Cdr.Context.override ~trace ctx in
  let solution, solve_seconds =
    Cdr_obs.Span.timed ~name:"report.solve" (fun () -> Composed.solve ~solver ~ctx composed)
  in
  let pi = solution.Markov.Solution.pi in
  ( {
      env = composed.Composed.env;
      backend = Composed.backend composed;
      n_states = composed.Composed.n_states;
      iterations = solution.Markov.Solution.iterations;
      residual = solution.Markov.Solution.residual;
      converged = solution.Markov.Solution.converged;
      build_seconds = composed.Composed.build_seconds;
      solve_seconds;
      regime_probs = Composed.regime_probs composed ~pi;
      regime_ber = Composed.regime_ber composed ~pi;
      ber = Composed.ber composed ~pi;
      slip_rate = Composed.slip_rate composed ~pi;
      mean_bits_between_slips = Composed.mean_bits_between_slips composed ~pi;
      phase_density = Composed.phase_marginal composed ~pi;
      regime_densities = Composed.regime_conditional_densities composed ~pi;
      trace;
    },
    solution )

let run ?solver ?(ctx = Cdr.Context.default) env cfg =
  fst (run_model ?solver ~ctx (Composed.build ~backend:ctx.Cdr.Context.backend env cfg))

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@," Env.pp t.env;
  Format.fprintf ppf "composed states: %d (%s backend), %d iterations%s@," t.n_states
    (Cdr_op.kind_string t.backend) t.iterations
    (if t.converged then "" else " [NOT CONVERGED]");
  Array.iteri
    (fun e name ->
      Format.fprintf ppf "  P(%-12s) = %.6f   conditional BER %.3e@," name t.regime_probs.(e)
        t.regime_ber.(e))
    (Array.map (fun (g : Env.regime) -> g.Env.name) t.env.Env.regimes);
  Format.fprintf ppf "regime-weighted BER: %.6e@," t.ber;
  Format.fprintf ppf "cycle-slip rate: %.6e (mean bits between slips %.4e)@]" t.slip_rate
    t.mean_bits_between_slips
