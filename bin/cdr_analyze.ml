(* Command-line front end for the CDR stochastic analysis.

   Subcommands:
     analyze  - stationary distribution, BER, cycle slips for one config
     sweep    - BER vs counter length (Figure 5)
     sigma    - BER vs eye-opening jitter (Figure 4's axis)
     slip     - cycle-slip measures vs drift
     mc       - Monte-Carlo baseline and comparison with the analysis
     spy      - transition matrix structure (Figure 3)
     solvers  - iteration/time comparison of the stationary solvers *)

open Cmdliner
module Params = Cdr_svc.Params

(* ---------- shared configuration flags ----------

   The flags populate the same Cdr_svc.Params.t the serving protocol's
   "params" object decodes into, so the CLI and the server share one field
   set, one set of defaults and one Config conversion. Every flag is
   optional (absence detectable), so --scenario can seed a preset's values
   first and explicit flags override individual fields — the same
   precedence the protocol's "scenario" params field has. *)

let scenario_flag =
  let doc =
    "Seed the configuration from the named scenario preset (see the $(b,scenario) subcommand for \
     the list); explicit configuration flags override individual fields on top."
  in
  Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME" ~doc)

let grid =
  let doc = "Phase-error grid bins over [-1/2, 1/2) (even, multiple of n-phases)." in
  Arg.(value & opt (some int) None & info [ "grid" ] ~doc)

let n_phases =
  let doc = "Number of VCO clock phases (selector step G = 1/n-phases UI)." in
  Arg.(value & opt (some int) None & info [ "phases" ] ~doc)

let counter =
  let doc = "Up/down counter overflow length K." in
  Arg.(value & opt (some int) None & info [ "counter"; "k" ] ~doc)

let sigma_w =
  let doc = "Std of the white Gaussian eye-opening jitter n_w (UI)." in
  Arg.(value & opt (some float) None & info [ "sigma-w" ] ~doc)

let drift_mean =
  let doc = "Mean of the n_r drift jitter in grid bins per bit." in
  Arg.(value & opt (some float) None & info [ "drift-mean" ] ~doc)

let drift_max =
  let doc = "Support bound of the n_r drift jitter in grid bins." in
  Arg.(value & opt (some int) None & info [ "drift-max" ] ~doc)

let max_run =
  let doc = "Longest run of identical bits in the data (forced transition after)." in
  Arg.(value & opt (some int) None & info [ "max-run" ] ~doc)

let p01 =
  let doc = "Per-bit data transition probability 0 to 1." in
  Arg.(value & opt (some float) None & info [ "p01" ] ~doc)

let p10 =
  let doc = "Per-bit data transition probability 1 to 0." in
  Arg.(value & opt (some float) None & info [ "p10" ] ~doc)

let p_transition =
  let doc = "Deprecated alias: set both $(b,--p01) and $(b,--p10) to one value." in
  Arg.(value & opt (some float) None & info [ "p-transition" ] ~doc)

let params_term =
  let make scenario grid phases counter sigma_w drift_mean drift_max max_run p_transition p01 p10 =
    match
      match scenario with
      | None -> Ok Params.default
      | Some name -> (
          match Cdr.Scenario.find name with
          | Some s -> Ok (Params.of_scenario s)
          | None -> Error (Printf.sprintf "unknown scenario %S (try the scenario subcommand)" name))
    with
    | Error msg -> Error (`Msg msg)
    | Ok base ->
        let apply v f p = match v with Some x -> f p x | None -> p in
        (* the alias seeds both directions; explicit --p01/--p10 win *)
        Ok
          (base
          |> apply grid (fun p x -> { p with Params.grid = x })
          |> apply phases (fun p x -> { p with Params.phases = x })
          |> apply counter (fun p x -> { p with Params.counter = x })
          |> apply sigma_w (fun p x -> { p with Params.sigma_w = x })
          |> apply drift_mean (fun p x -> { p with Params.drift_mean = x })
          |> apply drift_max (fun p x -> { p with Params.drift_max = x })
          |> apply max_run (fun p x -> { p with Params.max_run = x })
          |> apply p_transition (fun p x -> { p with Params.p01 = x; p10 = x })
          |> apply p01 (fun p x -> { p with Params.p01 = x })
          |> apply p10 (fun p x -> { p with Params.p10 = x }))
  in
  Term.(
    term_result
      (const make $ scenario_flag $ grid $ n_phases $ counter $ sigma_w $ drift_mean $ drift_max
     $ max_run $ p_transition $ p01 $ p10))

let to_cfg params =
  match Params.to_config params with
  | Ok cfg -> Ok cfg
  | Error msg -> Error (`Msg ("invalid configuration: " ^ msg))

let config_term = Term.(term_result (const to_cfg $ params_term))

(* ---------- environment flags (analyze only) ---------- *)

let env_preset =
  let doc =
    "Analyze under a named Markov-modulated jitter environment preset (bursty, drift-cycle, \
     crosstalk): the regime chain is composed with the CDR chain and the report carries \
     regime-conditional statistics next to the regime-weighted BER."
  in
  Arg.(value & opt (some string) None & info [ "env" ] ~docv:"PRESET" ~doc)

let env_file =
  let doc =
    "Analyze under the Markov-modulated jitter environment described in $(docv) — the same JSON \
     object the serving protocol's version-2 \"env\" params field carries."
  in
  Arg.(value & opt (some string) None & info [ "env-file" ] ~docv:"FILE" ~doc)

let env_term =
  let make preset file =
    match (preset, file) with
    | Some _, Some _ -> Error (`Msg "--env and --env-file are mutually exclusive")
    | None, None -> Ok None
    | Some name, None -> (
        match Cdr_env.Env.find name with
        | Some e -> Ok (Some e)
        | None ->
            Error
              (`Msg
                (Printf.sprintf "unknown environment preset %S (presets: %s)" name
                   (String.concat ", " (List.map fst Cdr_env.Env.presets)))))
    | None, Some path -> (
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error msg -> Error (`Msg ("cannot read environment file: " ^ msg))
        | text -> (
            match Cdr_obs.Jsonl.of_string (String.trim text) with
            | exception Failure msg -> Error (`Msg (path ^ ": malformed JSON: " ^ msg))
            | json -> (
                match Cdr_env.Env.of_json json with
                | Ok e -> Ok (Some e)
                | Error msg -> Error (`Msg (path ^ ": " ^ msg)))))
  in
  Term.(term_result (const make $ env_preset $ env_file))

let solver =
  let solver_conv =
    Arg.enum [ ("multigrid", `Multigrid); ("power", `Power); ("gauss-seidel", `Gauss_seidel) ]
  in
  let doc = "Stationary solver: multigrid, power, or gauss-seidel." in
  Arg.(value & opt solver_conv `Multigrid & info [ "solver" ] ~doc)

let backend =
  let backend_conv = Arg.enum [ ("csr", `Csr); ("kron", `Kron) ] in
  let doc =
    "Operator backend: $(b,csr) (the materialized sparse chain, the default) or $(b,kron) (a \
     matrix-free sum of Kronecker terms over the full product state space — the transition \
     matrix is never formed, so state counts far past the CSR memory wall still solve). The \
     kron backend serves the $(b,multigrid) and $(b,power) solvers; BER and slip measures \
     agree with csr within the solver tolerance."
  in
  Arg.(value & opt backend_conv `Csr & info [ "backend" ] ~doc)

(* ---------- parallelism (see Cdr_par) ---------- *)

let jobs =
  let doc =
    "Worker domains for parallel execution (sweep points, sparse solver kernels). Defaults to \
     $(b,CDR_JOBS) when set, else the machine's recommended domain count. Results are \
     bit-identical for any value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* every subcommand gets a pool either way; jobs=1 pools spawn no domains and
   run the same (deterministic) slot grids serially *)
let with_jobs jobs f =
  match Cdr_par.Pool.with_pool ?jobs f with
  | v -> v
  | exception Invalid_argument msg ->
      Format.eprintf "cdr_analyze: %s@." msg;
      exit 2

(* ---------- sweep strategy flag (see Cdr.Sweep) ---------- *)

let strategy =
  let doc =
    "Run the sweep as a warm-started continuation: points are processed in parameter order, each \
     reusing the previous point's state enumeration, sparsity pattern and stationary vector, with \
     multigrid setups cached per structure. Results agree with the default independent solves \
     within the solver tolerance."
  in
  Arg.(value & vflag Cdr.Context.cold [ (Cdr.Context.warm, info [ "warm-start" ] ~doc) ])

(* ---------- telemetry flags (see Cdr_obs) ---------- *)

let trace_file =
  let doc =
    "Write JSONL telemetry (one event per line: spans with wall-clock and allocation deltas, \
     per-iteration solver convergence samples) to $(docv). Equivalent to CDR_OBS=jsonl:$(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_file =
  let doc =
    "Write the solver convergence trace as CSV (header iter,residual,elapsed_s; one row per \
     outer iteration, e.g. per multigrid V-cycle) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* ---------- analyze ---------- *)

(* analyze reads its solver and backend flags into the shared Params
   record, so Params.to_config applies the service's rules to them *)
let analyze_config_term =
  let with_flags p solver backend = { p with Params.solver; backend } in
  let check p = Result.map (fun cfg -> (p, cfg)) (to_cfg p) in
  Term.(term_result (const check $ (const with_flags $ params_term $ solver $ backend)))

let analyze_term =
  let run ({ Params.solver; backend; _ }, cfg) env jobs trace_file metrics_file =
    with_jobs jobs @@ fun pool ->
    Option.iter
      (fun path ->
        try ignore (Cdr_obs.Sink.install_file path)
        with Sys_error msg ->
          Format.eprintf "cdr_analyze: cannot open trace file: %s@." msg;
          exit 1)
      trace_file;
    (* open the CSV before the solve so a bad path fails fast, not after a
       multi-second run *)
    let metrics_out =
      Option.map
        (fun path ->
          match open_out path with
          | exception Sys_error msg ->
              Format.eprintf "cdr_analyze: cannot open metrics file: %s@." msg;
              exit 1
          | oc -> (path, oc))
        metrics_file
    in
    (* one library path per request kind, whatever the backend: the
       context carries the backend and both reports build on it *)
    let ctx = Cdr.Context.make ~pool ~backend () in
    let trace =
      match env with
      | Some e ->
          let report = Cdr_env.Report.run ~solver ~ctx e cfg in
          Format.printf "%a@." Cdr_env.Report.pp report;
          report.Cdr_env.Report.trace
      | None ->
          let model = Cdr.Report.build ctx cfg in
          let report, solution = Cdr.Report.run_model ~solver ~ctx model in
          Format.printf "%a@." Cdr.Report.pp report;
          Format.printf "operator: %s@." (Cdr_op.label (Cdr.Report.operator model));
          Format.printf "Mean time between cycle slips: %.3e bit intervals@."
            (Cdr.Report.mean_time_between_slips model ~pi:solution.Markov.Solution.pi);
          report.Cdr.Report.trace
    in
    Option.iter
      (fun (path, oc) ->
        output_string oc (Cdr_obs.Trace.to_csv trace);
        close_out oc;
        Format.eprintf "convergence trace (%d samples, %s) written to %s@."
          (Cdr_obs.Trace.length trace) (Cdr_obs.Trace.name trace) path)
      metrics_out;
    Cdr_obs.Sink.close_all ()
  in
  Term.(const run $ analyze_config_term $ env_term $ jobs $ trace_file $ metrics_file)

let analyze_cmd =
  let doc = "Stationary phase-error density, BER and cycle-slip time for one configuration." in
  Cmd.v (Cmd.info "analyze" ~doc) analyze_term

(* ---------- sweep (counter) ---------- *)

let sweep_cmd =
  let lengths =
    let doc = "Counter lengths to evaluate." in
    Arg.(value & opt (list int) Cdr_svc.Protocol.default_lengths & info [ "lengths" ] ~doc)
  in
  let run cfg solver jobs strategy lengths =
    with_jobs jobs @@ fun pool ->
    let ctx = Cdr.Context.make ~pool ~strategy () in
    let points = Cdr.Sweep.counter_lengths ~solver ~ctx cfg lengths in
    Format.printf "%a@." Cdr.Sweep.pp_points points;
    (* one point list feeds both the table and the optimum: no re-solving *)
    let k, ber = Cdr.Sweep.optimal_of_points points in
    Format.printf "optimal counter length: %d (BER %.3e)@." k ber
  in
  let doc = "BER vs counter length (the paper's Figure 5)." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run $ config_term $ solver $ jobs $ strategy $ lengths)

(* ---------- sigma sweep ---------- *)

let sigma_cmd =
  let sigmas =
    let doc = "Eye-opening jitter levels to evaluate." in
    Arg.(value & opt (list float) Cdr_svc.Protocol.default_sigmas & info [ "values" ] ~doc)
  in
  let run cfg solver jobs strategy sigmas =
    with_jobs jobs @@ fun pool ->
    let ctx = Cdr.Context.make ~pool ~strategy () in
    let points = Cdr.Sweep.sigma_w_values ~solver ~ctx cfg sigmas in
    Format.printf "%a@." Cdr.Sweep.pp_points points
  in
  let doc = "BER vs eye-opening jitter level (the axis of the paper's Figure 4)." in
  Cmd.v (Cmd.info "sigma" ~doc)
    Term.(const run $ config_term $ solver $ jobs $ strategy $ sigmas)

(* ---------- slip ---------- *)

let slip_cmd =
  let run cfg solver =
    let model = Cdr.Model.build cfg in
    let solution = Cdr.Model.solve ~solver model in
    let rate = Cdr.Cycle_slip.rate model ~pi:solution.Markov.Solution.pi in
    let mtbf = Cdr.Cycle_slip.mean_time_between model ~pi:solution.Markov.Solution.pi in
    let first =
      Cdr.Cycle_slip.mean_first_slip_time
        ~ctx:(Cdr.Context.make ~init:solution.Markov.Solution.pi ())
        model
    in
    Format.printf "slip rate          : %.4e per bit@." rate;
    Format.printf "mean time between  : %.4e bits@." mtbf;
    Format.printf "mean first slip    : %.4e bits (from lock)@." first
  in
  let doc = "Cycle-slip rate and mean times (stationary flux and the restart chain)." in
  Cmd.v (Cmd.info "slip" ~doc) Term.(const run $ config_term $ solver)

(* ---------- mc ---------- *)

let mc_cmd =
  let bits =
    let doc = "Bit intervals to simulate." in
    Arg.(value & opt int 1_000_000 & info [ "bits" ] ~doc)
  in
  let seed =
    let doc = "PRNG seed." in
    Arg.(value & opt int64 42L & info [ "seed" ] ~doc)
  in
  let run cfg solver bits seed =
    let model = Cdr.Model.build cfg in
    let result, _solution = Cdr.Ber.analyze ~solver model in
    Format.printf "analysis BER      : %.4e@." result.Cdr.Ber.ber;
    let o = Sim.Transient.run ~seed cfg ~bits in
    let p = Sim.Estimate.point_estimate ~errors:o.Sim.Transient.errors ~bits in
    let iv = Sim.Estimate.wilson ~errors:o.Sim.Transient.errors ~bits () in
    Format.printf "simulated BER     : %.4e (%d errors in %d bits)@." p o.Sim.Transient.errors bits;
    Format.printf "95%% interval      : [%.4e, %.4e]@." iv.Sim.Estimate.lower iv.Sim.Estimate.upper;
    Format.printf "slips observed    : %d@." o.Sim.Transient.slips;
    let needed = Sim.Estimate.required_bits ~ber:(Float.max result.Cdr.Ber.ber 1e-300) () in
    Format.printf "bits needed for a 10%%-accurate MC estimate of the analysis BER: %.2e@." needed;
    if needed > float_of_int bits then
      Format.printf "(%.1e times more than simulated here -- the paper's infeasibility argument)@."
        (needed /. float_of_int bits)
  in
  let doc = "Monte-Carlo baseline vs the Markov-chain analysis." in
  Cmd.v (Cmd.info "mc" ~doc) Term.(const run $ config_term $ solver $ bits $ seed)

(* ---------- spy ---------- *)

let spy_cmd =
  let run cfg =
    let model = Cdr.Model.build cfg in
    Format.printf "%a@." Sparse.Spy.pp (Markov.Chain.tpm model.Cdr.Model.chain);
    Format.printf "@.";
    let net, _ = Cdr.Model.network cfg in
    Format.printf "%a@." Fsm.Network.pp_summary net
  in
  let doc = "Nonzero pattern of the transition probability matrix (the paper's Figure 3)." in
  Cmd.v (Cmd.info "spy" ~doc) Term.(const run $ config_term)

(* ---------- tolerance ---------- *)

let tolerance_cmd =
  let target =
    let doc = "BER target for the tolerance mask." in
    Arg.(value & opt float 1e-12 & info [ "ber-target" ] ~doc)
  in
  let family =
    let family_conv =
      Arg.enum [ ("sinusoidal", Cdr.Tolerance.Sinusoidal); ("wander", Cdr.Tolerance.Wander 0.5) ]
    in
    let doc = "Jitter family: sinusoidal or wander (rms = max/2)." in
    Arg.(value & opt family_conv Cdr.Tolerance.Sinusoidal & info [ "family" ] ~doc)
  in
  let run cfg target family =
    let result = Cdr.Tolerance.analyze ~family ~ber_target:target cfg in
    Format.printf "%a@." Cdr.Tolerance.pp result
  in
  let doc = "Jitter tolerance: largest input jitter meeting a BER target (bisection)." in
  Cmd.v (Cmd.info "tolerance" ~doc) Term.(const run $ config_term $ target $ family)

(* ---------- acquisition & clock jitter ---------- *)

let acquisition_cmd =
  let band =
    let doc = "Lock band in UI (default: one selector step G)." in
    Arg.(value & opt (some float) None & info [ "band" ] ~doc)
  in
  let run cfg band =
    let model = Cdr.Model.build cfg in
    let acq = Cdr.Acquisition.analyze ?lock_band_ui:band model in
    Format.printf "%a@.@." Cdr.Acquisition.pp acq;
    let solution = Cdr.Model.solve model in
    let jitter = Cdr.Clock_jitter.analyze model ~pi:solution.Markov.Solution.pi in
    Format.printf "%a@." Cdr.Clock_jitter.pp jitter
  in
  let doc = "Lock-acquisition times and recovered-clock jitter statistics." in
  Cmd.v (Cmd.info "acquisition" ~doc) Term.(const run $ config_term $ band)

(* ---------- scenario ---------- *)

let scenario_cmd =
  let scenario_name =
    let doc = "Scenario name (omit to list all)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let run name =
    match name with
    | None ->
        List.iter
          (fun s -> Format.printf "%-28s %s@." s.Cdr.Scenario.name s.Cdr.Scenario.description)
          Cdr.Scenario.all
    | Some name -> (
        match Cdr.Scenario.find name with
        | None ->
            Format.eprintf "unknown scenario %s@." name;
            exit 1
        | Some s ->
            Format.printf "%a@.@." Cdr.Scenario.pp s;
            let passes, ber = Cdr.Scenario.meets_specification s in
            Format.printf "analysis BER: %.3e -> %s the %.0e specification@." ber
              (if passes then "MEETS" else "FAILS")
              s.Cdr.Scenario.ber_specification)
  in
  let doc = "Evaluate a named operating scenario against its BER specification." in
  Cmd.v (Cmd.info "scenario" ~doc) Term.(const run $ scenario_name)

(* ---------- dot ---------- *)

let dot_cmd =
  let run cfg =
    let net, _ = Cdr.Model.network cfg in
    print_string (Fsm.Network.to_dot net)
  in
  let doc = "Emit the FSM network as a Graphviz digraph (Figure 2)." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ config_term)

(* ---------- spectrum ---------- *)

let spectrum_cmd =
  let lags =
    let doc = "Autocovariance lags to compute before the transform." in
    Arg.(value & opt int 256 & info [ "lags" ] ~doc)
  in
  let run cfg lags =
    let model = Cdr.Model.build cfg in
    let solution = Cdr.Model.solve model in
    let psd = Cdr.Clock_jitter.spectrum ~lags model ~pi:solution.Markov.Solution.pi in
    Format.printf "frequency(cycles/bit),psd@.";
    Array.iter (fun (f, p) -> Format.printf "%.6f,%.6e@." f p) psd
  in
  let doc = "Recovered-clock jitter power spectral density (CSV on stdout)." in
  Cmd.v (Cmd.info "spectrum" ~doc) Term.(const run $ config_term $ lags)

(* ---------- csv ---------- *)

let csv_cmd =
  let run cfg =
    let report = Cdr.Report.run cfg in
    print_string (Cdr.Report.to_csv report)
  in
  let doc = "Stationary density series as CSV on stdout (for plotting)." in
  Cmd.v (Cmd.info "csv" ~doc) Term.(const run $ config_term)

(* ---------- solvers ---------- *)

let solvers_cmd =
  let run cfg =
    let model = Cdr.Model.build cfg in
    Format.printf "chain: %d states@.@." model.Cdr.Model.n_states;
    List.iter
      (fun solver ->
        let t0 = Unix.gettimeofday () in
        let sol = Cdr.Model.solve ~solver ~ctx:(Cdr.Context.make ~tol:1e-10 ()) model in
        Format.printf "%-14s %6d iterations  residual %.2e  %6.2fs %s@."
          (Cdr.Model.solver_name solver) sol.Markov.Solution.iterations
          sol.Markov.Solution.residual
          (Unix.gettimeofday () -. t0)
          (if sol.Markov.Solution.converged then "" else "(NOT converged)"))
      [ `Multigrid; `Gauss_seidel; `Power ]
  in
  let doc = "Compare the stationary solvers on the composed chain." in
  Cmd.v (Cmd.info "solvers" ~doc) Term.(const run $ config_term)

let () =
  Cdr_obs.Sink.init_from_env ();
  let doc = "Stochastic performance analysis of digital clock-data recovery circuits" in
  let info = Cmd.info "cdr_analyze" ~version:"1.0.0" ~doc in
  (* [analyze] doubles as the default command, so the telemetry flags work
     with no subcommand: cdr_analyze --trace t.jsonl --metrics m.csv *)
  let status =
    Cmd.eval
      (Cmd.group ~default:analyze_term info
         [ analyze_cmd; sweep_cmd; sigma_cmd; slip_cmd; mc_cmd; spy_cmd; tolerance_cmd;
           acquisition_cmd; scenario_cmd; dot_cmd; spectrum_cmd; csv_cmd; solvers_cmd ])
  in
  Cdr_obs.Sink.close_all ();
  exit status
