(* Benchmark / reproduction harness: one section per paper artifact.

   Sections F2-F5 regenerate the rows/series of the paper's figures; SOLVERS
   and MC regenerate the numerical-methods and infeasibility claims; SLIP
   regenerates the cycle-slip performance measure; SOLVER-TELEMETRY turns
   the "power iteration is hopeless on stiff chains" prose into measured
   residual-per-second traces. A final Bechamel section micro-benchmarks the
   computational kernels.

   Run with: dune exec bench/main.exe
   Run a subset by section-name prefix: dune exec bench/main.exe -- telemetry kernels
   Set CDR_OBS (see Cdr_obs.Sink) to stream JSONL telemetry while it runs. *)

let section name =
  Format.printf "@.============================================================@.";
  Format.printf "== %s@." name;
  Format.printf "============================================================@.@."

let time f = Cdr_obs.Span.timed ~name:"bench.time" f

(* ---------- EXP-F2: the compositional model ---------- *)

let exp_f2 () =
  section "EXP-F2 (Figure 2): compositional model of the CDR loop";
  let cfg = Cdr.Config.default in
  Format.printf "%a@.@." Cdr.Config.pp cfg;
  let net, initial = Cdr.Model.network cfg in
  Format.printf "%a@." Fsm.Network.pp_summary net;
  Format.printf "initial state vector: [%s]@."
    (String.concat "; " (Array.to_list (Array.map string_of_int initial)));
  let model = Cdr.Model.build cfg in
  Format.printf "reachable composed states: %d (matrix formed in %.2fs)@." model.Cdr.Model.n_states
    model.Cdr.Model.build_seconds

(* ---------- EXP-F3: TPM nonzero pattern ---------- *)

let exp_f3 () =
  section "EXP-F3 (Figure 3): nonzero pattern of the transition probability matrix";
  let cfg = { Cdr.Config.default with Cdr.Config.grid_points = 64; max_run = 4 } in
  let model = Cdr.Model.build cfg in
  Format.printf "%a@." Sparse.Spy.pp (Markov.Chain.tpm model.Cdr.Model.chain)

(* ---------- EXP-F4: densities and BER at two noise levels ---------- *)

let exp_f4 () =
  section "EXP-F4 (Figure 4): phase-error density and BER at two noise levels";
  let base = Cdr.Config.default in
  let cases =
    [
      ("low noise (negligible BER)", base);
      ("eye-opening jitter x2.5", { base with Cdr.Config.sigma_w = base.Cdr.Config.sigma_w *. 2.5 });
    ]
  in
  List.iter
    (fun (label, cfg) ->
      Format.printf "--- %s ---@." label;
      let report = Cdr.Report.run cfg in
      Format.printf "%a@." Cdr.Report.pp report;
      Format.printf "%s@." (Cdr.Report.density_table ~max_rows:17 report))
    cases

(* ---------- EXP-F5: counter length sweep ---------- *)

let exp_f5 () =
  section "EXP-F5 (Figure 5): effect of counter length on BER";
  let base = Cdr.Config.default in
  let lengths = [ 2; 4; 8; 16; 32 ] in
  let points = Cdr.Sweep.counter_lengths base lengths in
  Format.printf "%a@." Cdr.Sweep.pp_points points;
  let best_k, best_ber = Cdr.Sweep.optimal_counter base lengths in
  Format.printf "optimal counter length: %d (BER %.3e)@." best_k best_ber;
  List.iter
    (fun p ->
      let k = p.Cdr.Sweep.config.Cdr.Config.counter_length in
      if k <> best_k then
        Format.printf "  counter %2d: %.2gx worse@." k (p.Cdr.Sweep.report.Cdr.Report.ber /. best_ber))
    points;
  Format.printf
    "@.shape check: short counter follows n_w (high-bandwidth jitter amplification),@.";
  Format.printf "long counter cannot track the n_r drift; the optimum sits in between.@."

(* ---------- EXP-SOLVE: solver comparison across grid sizes ---------- *)

let exp_solve () =
  section "EXP-SOLVE: multigrid vs one-level iterations as the chain stiffens";
  let tol = 1e-10 in
  Format.printf "(tolerance: l1 residual <= %g; times in seconds)@.@." tol;
  Format.printf "%-6s %-8s %-22s %-22s %-22s@." "grid" "states" "multigrid" "gauss-seidel" "power";
  List.iter
    (fun grid_points ->
      let cfg =
        Cdr.Config.create_exn { Cdr.Config.default with Cdr.Config.grid_points; sigma_w = 0.04 }
      in
      let model = Cdr.Model.build cfg in
      let ctx = Cdr.Context.make ~tol () in
      let mg, mg_t = time (fun () -> Cdr.Model.solve ~ctx model) in
      let gs, gs_t = time (fun () -> Cdr.Model.solve ~solver:`Gauss_seidel ~ctx model) in
      let pw, pw_t = time (fun () -> Cdr.Model.solve ~solver:`Power ~ctx model) in
      Format.printf "%-6d %-8d %6d cyc %9.2fs %6d swp %9.2fs %6d it %10.2fs@." grid_points
        model.Cdr.Model.n_states mg.Markov.Solution.iterations mg_t gs.Markov.Solution.iterations
        gs_t pw.Markov.Solution.iterations pw_t)
    [ 64; 128; 256 ]

(* ---------- EXP-SLIP: mean time between cycle slips ---------- *)

let exp_slip () =
  section "EXP-SLIP: mean time between cycle slips vs drift strength";
  let base =
    { Cdr.Config.default with Cdr.Config.grid_points = 64; counter_length = 4; sigma_w = 0.12 }
  in
  Format.printf "%-12s %-14s %-14s %-18s %-12s %-10s@." "drift mean" "slip rate" "MTBF (bits)"
    "first slip (bits)" "first/MTBF" "V-cycles";
  List.iter
    (fun mean_steps ->
      let cfg =
        Cdr.Config.create_exn
          { base with Cdr.Config.nr = Prob.Jitter.drift ~max_steps:2 ~mean_steps () }
      in
      let model = Cdr.Model.build cfg in
      let solution = Cdr.Model.solve model in
      let rate = Cdr.Cycle_slip.rate model ~pi:solution.Markov.Solution.pi in
      let mtbf = Cdr.Cycle_slip.mean_time_between model ~pi:solution.Markov.Solution.pi in
      (* cold, so the cycle count is the restart chain's own *)
      let first, restart = Cdr.Cycle_slip.first_slip model in
      Format.printf "%-12g %-14.3e %-14.3e %-18.3e %-12.4f %-10d@." mean_steps rate mtbf first
        (first /. mtbf) restart.Markov.Solution.iterations)
    [ 0.2; 0.4; 0.6; 0.8 ]

(* ---------- EXP-MC: the infeasibility of straightforward simulation ---------- *)

let exp_mc () =
  section "EXP-MC: Monte-Carlo baseline vs the analysis";
  (* a noisy configuration where MC works: cross-validate *)
  let noisy =
    {
      Cdr.Config.default with
      Cdr.Config.grid_points = 32;
      n_phases = 8;
      counter_length = 3;
      max_run = 4;
      sigma_w = 0.22;
      nw_max_atoms = 33;
    }
  in
  let model = Cdr.Model.build noisy in
  let solution = Cdr.Model.solve model in
  let rho = Cdr.Model.phase_marginal model ~pi:solution.Markov.Solution.pi in
  let predicted = Cdr.Ber.of_convolution noisy ~rho in
  let bits = 300_000 in
  let o, mc_t = time (fun () -> Sim.Transient.run_discretized ~seed:2024L noisy ~bits) in
  let estimate = Sim.Estimate.point_estimate ~errors:o.Sim.Transient.errors ~bits in
  let iv = Sim.Estimate.wilson ~errors:o.Sim.Transient.errors ~bits () in
  Format.printf "high-noise cross-check (sigma_w = %.2f):@." noisy.Cdr.Config.sigma_w;
  Format.printf "  analysis BER  : %.4e@." predicted;
  Format.printf "  simulated BER : %.4e  (95%%: [%.4e, %.4e], %d errors, %.2fs)@." estimate
    iv.Sim.Estimate.lower iv.Sim.Estimate.upper o.Sim.Transient.errors mc_t;
  (* the infeasibility table *)
  Format.printf "@.bits required for a 10%%-accurate MC estimate (95%% confidence):@.";
  Format.printf "  %-10s %-14s %-22s@." "BER" "bits needed" "at 10 Gb/s";
  List.iter
    (fun ber ->
      let n = Sim.Estimate.required_bits ~ber () in
      let seconds = n /. 1e10 in
      let human =
        if seconds < 60.0 then Printf.sprintf "%.1f s" seconds
        else if seconds < 86400.0 then Printf.sprintf "%.1f h" (seconds /. 3600.0)
        else Printf.sprintf "%.1f years" (seconds /. (86400.0 *. 365.25))
      in
      Format.printf "  %-10.0e %-14.2e %-22s@." ber n human)
    [ 1e-4; 1e-7; 1e-10; 1e-12; 1e-14 ];
  let mc_rate = float_of_int bits /. mc_t in
  let analysis_result, analysis_t =
    time (fun () ->
        let r, _ = Cdr.Ber.analyze (Cdr.Model.build Cdr.Config.default) in
        r.Cdr.Ber.ber)
  in
  Format.printf "@.this machine simulates %.2e bits/s; verifying 1e-14 that way would take %.1e years.@."
    mc_rate
    (Sim.Estimate.required_bits ~ber:1e-14 () /. mc_rate /. (86400.0 *. 365.25));
  Format.printf "the analysis computed a BER of %.1e in %.1fs.@." analysis_result analysis_t

(* ---------- EXP-SCALE: the million-state claim ---------- *)

let exp_scale () =
  section "EXP-SCALE: a ~10^6-state chain (the paper: million-state problems < 1 h)";
  let cfg =
    Cdr.Config.create_exn
      {
        Cdr.Config.default with
        Cdr.Config.grid_points = 1024;
        n_phases = 16;
        counter_length = 16;
        max_run = 16;
      }
  in
  let model, build_t = time (fun () -> Cdr.Model.build cfg) in
  Format.printf "states: %d  nnz: %d  matrix formed in %.1fs@." model.Cdr.Model.n_states
    (Sparse.Csr.nnz (Markov.Chain.tpm model.Cdr.Model.chain))
    build_t;
  let (sol, stats), mg_t =
    time (fun () ->
        Markov.Multigrid.solve ~tol:1e-9 ~max_cycles:250 ~pre_smooth:4 ~post_smooth:4
          ~hierarchy:(Cdr.Model.hierarchy model) model.Cdr.Model.chain)
  in
  Format.printf "multigrid: %d cycles, residual %.1e, %.0fs (%d levels, coarsest %d)%s@."
    sol.Markov.Solution.iterations sol.Markov.Solution.residual mg_t
    stats.Markov.Multigrid.levels stats.Markov.Multigrid.coarsest_size
    (if sol.Markov.Solution.converged then "" else "  NOT CONVERGED");
  let rho = Cdr.Model.phase_marginal model ~pi:sol.Markov.Solution.pi in
  Format.printf "BER on the 1024-bin grid: %.3e@." (Cdr.Ber.of_marginal cfg ~rho);
  (* how far a capped one-level method gets in comparable time *)
  let gs, gs_t =
    time (fun () -> Markov.Splitting.solve ~tol:1e-9 ~max_iter:400 model.Cdr.Model.chain)
  in
  Format.printf "gauss-seidel capped at 400 sweeps: residual %.1e after %.0fs (still > tol)@."
    gs.Markov.Solution.residual gs_t

(* ---------- SOLVER-TELEMETRY: convergence traces as data ---------- *)

let exp_telemetry () =
  section "SOLVER-TELEMETRY: residual-per-second traces (multigrid vs power)";
  let tol = 1e-12 in
  (* asymptotic convergence rate: decades of residual per second over the
     second half of the trace (the first half is transient-dominated) *)
  let tail_rate trace =
    let s = Cdr_obs.Trace.samples trace in
    let n = Array.length s in
    if n < 4 then Cdr_obs.Trace.decades_per_second trace
    else begin
      let a = s.(n / 2) and b = s.(n - 1) in
      let dt = b.Cdr_obs.Trace.elapsed -. a.Cdr_obs.Trace.elapsed in
      if dt <= 0.0 || a.Cdr_obs.Trace.residual <= 0.0 || b.Cdr_obs.Trace.residual <= 0.0 then 0.0
      else (Float.log10 a.Cdr_obs.Trace.residual -. Float.log10 b.Cdr_obs.Trace.residual) /. dt
    end
  in
  Format.printf "(tolerance %g; power capped at 2500 iterations; rates are tail rates)@.@." tol;
  Format.printf "%-6s %-8s | %-30s | %-36s@." "grid" "states" "multigrid" "power";
  let measured =
    List.map
      (fun grid_points ->
        let cfg =
          Cdr.Config.create_exn { Cdr.Config.default with Cdr.Config.grid_points; sigma_w = 0.04 }
        in
        let model = Cdr.Model.build cfg in
        let chain = model.Cdr.Model.chain in
        let mg = Cdr_obs.Trace.create ~name:"multigrid" () in
        let sol_mg, _stats =
          Markov.Multigrid.solve ~tol ~trace:mg ~hierarchy:(Cdr.Model.hierarchy model) chain
        in
        let pw = Cdr_obs.Trace.create ~name:"power" () in
        let sol_pw = Markov.Power.solve ~tol ~max_iter:2_500 ~trace:pw chain in
        let m = Option.get (Cdr_obs.Trace.last mg) in
        let p = Option.get (Cdr_obs.Trace.last pw) in
        let pw_rate = tail_rate pw in
        (* time power still needs, at its measured asymptotic rate, to reach
           the tolerance multigrid already met *)
        let pw_projected =
          if sol_pw.Markov.Solution.converged then p.Cdr_obs.Trace.elapsed
          else if pw_rate > 0.0 then
            p.Cdr_obs.Trace.elapsed
            +. ((Float.log10 sol_pw.Markov.Solution.residual -. Float.log10 tol) /. pw_rate)
          else Float.infinity
        in
        Format.printf "%-6d %-8d | %4d cyc %8.2fs %9.1e | %5d it %8.2fs %9.1e -> ~%.0fs@."
          grid_points model.Cdr.Model.n_states m.Cdr_obs.Trace.iter m.Cdr_obs.Trace.elapsed
          sol_mg.Markov.Solution.residual p.Cdr_obs.Trace.iter p.Cdr_obs.Trace.elapsed
          sol_pw.Markov.Solution.residual pw_projected;
        (grid_points, mg, pw, m.Cdr_obs.Trace.elapsed, pw_projected, pw_rate))
      [ 64; 128; 256 ]
  in
  Format.printf "@.power tail rate (decades/s) by grid:";
  List.iter (fun (g, _, _, _, _, r) -> Format.printf "  %d: %.2f" g r) measured;
  Format.printf "@.";
  (match (measured, List.rev measured) with
  | (g0, _, _, _, _, r0) :: _, (g1, mg1, pw1, mg_t, pw_proj, r1) :: _ when r1 > 0.0 ->
      Format.printf
        "growing the grid %dx (%d -> %d bins) cut power's convergence rate %.0fx while the@."
        (g1 / g0) g0 g1 (r0 /. r1);
      Format.printf
        "multigrid trace stays flat: on the %d-bin chain power needs ~%.0fs vs %.1fs (%.1fx),@."
        g1 pw_proj mg_t (pw_proj /. mg_t);
      Format.printf
        "and the gap widens without bound — on the million-state chain of EXP-SCALE a one-level@.";
      Format.printf "iteration no longer moves the residual at all (see its capped run).@.@.";
      Format.printf "full traces on the stiffest chain:@.%a@.%a@." Cdr_obs.Trace.pp mg1
        Cdr_obs.Trace.pp pw1
  | _ -> ())

(* ---------- ablations: the design choices behind the numbers ---------- *)

let ablation_multigrid () =
  section "ABLATION-MG: multigrid design choices";
  let cfg =
    Cdr.Config.create_exn { Cdr.Config.default with Cdr.Config.grid_points = 256; sigma_w = 0.04 }
  in
  let model = Cdr.Model.build cfg in
  let chain = model.Cdr.Model.chain in
  Format.printf "chain: %d states; tolerance 1e-10@.@." model.Cdr.Model.n_states;
  Format.printf "(a) smoothing sweeps per V-cycle (structured hierarchy):@.";
  List.iter
    (fun (pre, post) ->
      let (sol, stats), dt =
        time (fun () ->
            Markov.Multigrid.solve ~tol:1e-10 ~pre_smooth:pre ~post_smooth:post
              ~hierarchy:(Cdr.Model.hierarchy model) chain)
      in
      Format.printf "  pre=%d post=%d: %3d cycles  %6.2fs  (levels %d, coarsest %d)%s@." pre post
        sol.Markov.Solution.iterations dt stats.Markov.Multigrid.levels
        stats.Markov.Multigrid.coarsest_size
        (if sol.Markov.Solution.converged then "" else "  NOT CONVERGED"))
    [ (1, 1); (2, 2); (4, 4) ];
  Format.printf "@.(b) structured (lump adjacent phase bins) vs generic (pair state indices):@.";
  let generic =
    Markov.Multigrid.default_hierarchy ~n:model.Cdr.Model.n_states
      ~coarsest:Markov.Gth.max_direct_size
  in
  List.iter
    (fun (name, hierarchy) ->
      let (sol, _), dt = time (fun () -> Markov.Multigrid.solve ~tol:1e-10 ~hierarchy chain) in
      Format.printf "  %-12s %4d cycles  %6.2fs%s@." name sol.Markov.Solution.iterations dt
        (if sol.Markov.Solution.converged then "" else "  NOT CONVERGED"))
    [ ("structured", Cdr.Model.hierarchy model); ("generic", generic) ];
  Format.printf
    "@.both hierarchies converge; the structured one (the paper's choice) produces@.";
  Format.printf "sparser, physically meaningful coarse levels and cheaper cycles overall.@."

let ablation_nw_discretization () =
  section "ABLATION-NW: n_w discretization resolution vs BER accuracy";
  let base = { Cdr.Config.default with Cdr.Config.grid_points = 64 } in
  Format.printf "%-10s %-10s %-14s %-12s@." "atoms" "states" "BER" "build+solve(s)";
  let reference = ref None in
  List.iter
    (fun nw_max_atoms ->
      let cfg = Cdr.Config.create_exn { base with Cdr.Config.nw_max_atoms } in
      let (model, result), dt =
        time (fun () ->
            let model = Cdr.Model.build cfg in
            let result, _ = Cdr.Ber.analyze model in
            (model, result))
      in
      if !reference = None then reference := Some result.Cdr.Ber.ber;
      Format.printf "%-10d %-10d %-14.5e %-12.2f@." nw_max_atoms model.Cdr.Model.n_states
        result.Cdr.Ber.ber dt)
    [ 9; 17; 33; 65; 129 ];
  Format.printf
    "@.the BER stabilizes once the lattice resolves the detector decision probabilities;@.";
  Format.printf "the matrix size is unaffected because n_w never enters the Markov state@.";
  Format.printf "(it is integrated out into the detector probabilities), exactly as the paper@.";
  Format.printf "notes: only n_r forces grid resolution.@."

let ablation_dead_zone () =
  section "ABLATION-DZ: ternary detector dead zone (an alternative circuit technique)";
  let base = Cdr.Config.default in
  Format.printf "%-12s %-14s %-16s %-14s@." "dead zone" "BER" "rms jitter (UI)" "MTBF (bits)";
  List.iter
    (fun detector_dead_zone ->
      let cfg = Cdr.Config.create_exn { base with Cdr.Config.detector_dead_zone } in
      let model = Cdr.Model.build cfg in
      let result, solution = Cdr.Ber.analyze model in
      let jitter = Cdr.Clock_jitter.analyze ~lags:0 model ~pi:solution.Markov.Solution.pi in
      let mtbf = Cdr.Cycle_slip.mean_time_between model ~pi:solution.Markov.Solution.pi in
      Format.printf "%-12d %-14.3e %-16.5f %-14.3e@." detector_dead_zone result.Cdr.Ber.ber
        jitter.Cdr.Clock_jitter.rms_ui mtbf)
    [ 0; 1; 2; 4; 8 ];
  Format.printf
    "@.a small dead zone suppresses dither (lower rms jitter) but a large one lets the@.";
  Format.printf "n_r drift wander uncorrected before the loop reacts - the same bandwidth@.";
  Format.printf "trade-off as the counter length, evaluated without building silicon.@."

(* ---------- extension: second-order loop ---------- *)

let exp_freq_track () =
  section "EXTENSION-2ND: second-order loop (frequency tracking) vs the paper's first-order";
  let base =
    {
      Cdr.Config.default with
      Cdr.Config.grid_points = 32;
      n_phases = 8;
      counter_length = 3;
      max_run = 4;
      nw_max_atoms = 17;
      sigma_w = 0.08;
    }
  in
  Format.printf "%-12s %-14s %-14s %-14s %-14s@." "drift mean" "1st-ord BER" "1st-ord slips"
    "2nd-ord BER" "2nd-ord slips";
  List.iter
    (fun mean_steps ->
      let cfg =
        Cdr.Config.create_exn
          { base with Cdr.Config.nr = Prob.Jitter.drift ~max_steps:2 ~mean_steps () }
      in
      let first = Cdr.Model.build cfg in
      let sol1 = Cdr.Model.solve first in
      let rho1 = Cdr.Model.phase_marginal first ~pi:sol1.Markov.Solution.pi in
      let second =
        Cdr.Freq_track.build ~params:{ Cdr.Freq_track.max_f = 1; adapt_length = 3 } cfg
      in
      let sol2 = Cdr.Freq_track.solve ~tol:1e-9 second in
      let pi2 = sol2.Markov.Solution.pi in
      Format.printf "%-12g %-14.3e %-14.3e %-14.3e %-14.3e@." mean_steps
        (Cdr.Ber.of_marginal cfg ~rho:rho1)
        (Cdr.Cycle_slip.rate first ~pi:sol1.Markov.Solution.pi)
        (Cdr.Freq_track.ber second ~pi:pi2)
        (Cdr.Freq_track.slip_rate second ~pi:pi2))
    [ 0.4; 0.8 ]

(* ---------- extension: acquisition & recovered-clock jitter ---------- *)

let exp_extensions () =
  section "EXTENSIONS: lock acquisition, recovered-clock jitter, loop activity";
  (* default grid: the selector step (8 bins) dominates n_r (2 bins), which
     the activity analysis requires to identify corrections *)
  let cfg = Cdr.Config.default in
  let model = Cdr.Model.build cfg in
  let solution = Cdr.Model.solve model in
  let jitter = Cdr.Clock_jitter.analyze model ~pi:solution.Markov.Solution.pi in
  Format.printf "%a@.@." Cdr.Clock_jitter.pp jitter;
  let acq = Cdr.Acquisition.analyze model in
  Format.printf "%a@.@." Cdr.Acquisition.pp acq;
  let activity = Cdr.Activity.analyze model ~pi:solution.Markov.Solution.pi in
  Format.printf "%a@." Cdr.Activity.pp activity

(* ---------- SMOKE: deterministic telemetry counters ---------- *)

(* A tiny configuration exercised so that the metric counter deltas of this
   section are exact integers — builds, solves, rebuilds, cache hits/misses —
   never wall seconds. CI runs just this section (make bench-smoke) and
   asserts the deltas from the BENCH.json it writes, plus the tiny chain's
   multigrid setup size (an exact byte count, so a layout change shows) and
   the matrix-free IAD solve's one coarse V-cycle per outer cycle. *)
let exp_smoke () =
  section "SMOKE: deterministic telemetry counters on a tiny configuration";
  let cfg =
    Cdr.Config.create_exn
      {
        Cdr.Config.default with
        Cdr.Config.grid_points = 32;
        n_phases = 8;
        counter_length = 3;
        max_run = 4;
        nw_max_atoms = 17;
        sigma_w = 0.0610;
      }
  in
  let cache = Cdr.Solver_cache.create () in
  let model = Cdr.Model.build cfg in
  let ctx = Cdr.Context.make ~cache () in
  let _ = Cdr.Model.solve ~ctx model in
  let _ = Cdr.Model.solve ~ctx model in
  let model2, reused = Cdr.Model.rebuild model { cfg with Cdr.Config.sigma_w = 0.0611 } in
  let _ = Cdr.Model.solve ~ctx model2 in
  Format.printf "1 direct build, 3 multigrid solves, 1 in-place rebuild (pattern reused: %b)@."
    reused;
  Format.printf "solver cache: %d hits, %d misses@." (Cdr.Solver_cache.hits cache)
    (Cdr.Solver_cache.misses cache);
  (* one structure, so the cache holds exactly its setup *)
  let setup_bytes = Cdr.Solver_cache.bytes cache in
  Cdr_obs.Metrics.set_gauge "multigrid.setup_bytes" (float_of_int setup_bytes);
  Format.printf "multigrid setup: %d bytes@." setup_bytes;
  Format.printf
    "expected deltas: model.builds{via=direct}=1  model.solves{solver=multigrid}=3@.";
  Format.printf "  model.rebuilds{pattern=reused}=1  solver_cache.hits=2  solver_cache.misses=1@.";
  (* one matrix-free IAD solve of the same configuration: every outer cycle
     runs exactly one coarse V-cycle, never a nested coarse solve (the
     count comes from the coarse scratch the V-cycles ran in), and the
     solve enumerates the operator's rows once, into its entry table *)
  let km = Cdr.Kron_model.build cfg in
  match Cdr.Kron_model.hierarchy km with
  | [] -> failwith "smoke: the kron chain fits a direct solve"
  | partition :: coarse_hierarchy ->
      let _, stats =
        Markov.Op_multigrid.solve ~coarse_hierarchy ~partition km.Cdr.Kron_model.op
      in
      let cycles = stats.Markov.Op_multigrid.cycles
      and coarse_cycles = stats.Markov.Op_multigrid.coarse_cycles in
      Cdr_obs.Metrics.set_gauge "op_multigrid.cycles" (float_of_int cycles);
      Cdr_obs.Metrics.set_gauge "op_multigrid.coarse_cycles" (float_of_int coarse_cycles);
      Cdr_obs.Metrics.set_gauge "bench.iad_one_coarse_cycle_ok"
        (if cycles > 0 && coarse_cycles = cycles then 1.0 else 0.0);
      Cdr_obs.Metrics.set_gauge "op_multigrid.row_passes"
        (float_of_int stats.Markov.Op_multigrid.row_passes);
      Cdr_obs.Metrics.set_gauge "op_multigrid.table_bytes"
        (float_of_int stats.Markov.Op_multigrid.table_bytes);
      Format.printf
        "kron IAD solve (%d states): %d outer cycles, %d coarse V-cycles, %d row pass(es) into a \
         %d-byte entry table@."
        km.Cdr.Kron_model.n_states cycles coarse_cycles stats.Markov.Op_multigrid.row_passes
        stats.Markov.Op_multigrid.table_bytes

(* ---------- KRON-SCALING: the matrix-free Kronecker backend ---------- *)

(* peak resident set (VmHWM) in MB from /proc/self/status; None when the
   proc filesystem is unavailable (non-Linux hosts) *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" -> (
            match String.split_on_char ' ' (String.trim (String.sub line 6 (String.length line - 6))) with
            | kb :: _ -> ( match float_of_string_opt kb with
              | Some kb -> Some (kb /. 1024.0)
              | None -> scan ())
            | [] -> scan ())
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let exp_kron () =
  section "KRON-SCALING: matrix-free Kronecker backend vs the CSR memory wall";
  (* the EXP-SCALE family (phases 16 / counter 16 / max-run 16) with the grid
     as the scaling axis; the operator lives on the full product space
     n_data * n_counter * grid. "csr MB" is what materializing would cost at
     12 bytes per stored nonzero (8 value + 4 column) — the bound the
     factorized storage avoids. *)
  let cfg_of grid_points =
    Cdr.Config.create_exn
      {
        Cdr.Config.default with
        Cdr.Config.grid_points;
        n_phases = 16;
        counter_length = 16;
        max_run = 16;
      }
  in
  let applies = 5 in
  Format.printf "%-6s %-9s %-6s %-12s %-9s %-10s %-10s %-8s@." "grid" "states" "terms"
    "nnz bound" "csr MB" "build (s)" "apply (s)" "rss MB";
  let rungs =
    List.map
      (fun grid ->
        let cfg = cfg_of grid in
        let model, build_t = time (fun () -> Cdr.Kron_model.build cfg) in
        let op = Cdr.Kron_model.operator model in
        let n = Cdr.Kron_model.n_states model in
        let x = Array.make n (1.0 /. float_of_int n) in
        let y = Array.make n 0.0 in
        let (), apply_total =
          time (fun () ->
              for _ = 1 to applies do
                Cdr_op.vec_mul_into op x y
              done)
        in
        let apply_t = apply_total /. float_of_int applies in
        let csr_mb = float_of_int (Cdr_op.nnz_estimate op) *. 12.0 /. 1048576.0 in
        let rss = peak_rss_mb () in
        let g = string_of_int grid in
        Cdr_obs.Metrics.set_gauge "bench.kron_states" ~labels:[ ("grid", g) ] (float_of_int n);
        Cdr_obs.Metrics.set_gauge "bench.kron_nnz_bound" ~labels:[ ("grid", g) ]
          (float_of_int (Cdr_op.nnz_estimate op));
        Cdr_obs.Metrics.set_gauge "bench.kron_build_seconds" ~labels:[ ("grid", g) ] build_t;
        Cdr_obs.Metrics.set_gauge "bench.kron_apply_seconds" ~labels:[ ("grid", g) ] apply_t;
        Option.iter
          (Cdr_obs.Metrics.set_gauge "bench.kron_peak_rss_mb" ~labels:[ ("grid", g) ])
          rss;
        Format.printf "%-6d %-9d %-6d %-12d %-9.0f %-10.2f %-10.3f %-8s@." grid n
          (Sparse.Kron_op.n_terms model.Cdr.Kron_model.kron)
          (Cdr_op.nnz_estimate op) csr_mb build_t apply_t
          (match rss with Some mb -> Printf.sprintf "%.0f" mb | None -> "-");
        (grid, cfg, model))
      [ 256; 512; 1024; 2048 ]
  in
  (* a tolerance solve via the IAD cycle at the first rung. Besides the
     half-size coarse chain (and the CSR hierarchy below it), the solve
     keeps a per-solve table of the fine operator's entries, 12 B per
     entry: it is not matrix-free in memory, only in that the product
     matrix is never assembled and never applied as CSR. The rung reports
     the table's bytes beside the never-built CSR's. *)
  (match rungs with
  | (grid, cfg, model) :: _ ->
      let ctx = Cdr.Context.make ~tol:1e-9 ~backend:`Kron () in
      let mg, mg_t = time (fun () -> Cdr.Kron_model.solve ~solver:`Multigrid ~ctx model) in
      Format.printf
        "@.IAD rung: grid %d, %d states — multigrid %d cycles  residual %.2e  %.1fs%s@."
        grid
        (Cdr.Kron_model.n_states model)
        mg.Markov.Solution.iterations mg.Markov.Solution.residual mg_t
        (if mg.Markov.Solution.converged then "" else "  NOT CONVERGED");
      let rho = Cdr.Kron_model.phase_marginal model ~pi:mg.Markov.Solution.pi in
      let ber = Cdr.Ber.of_marginal cfg ~rho in
      Format.printf "  BER on the %d-bin grid: %.3e@." grid ber;
      let table_bytes =
        Option.fold ~none:0 ~some:Markov.Op_multigrid.table_bytes model.Cdr.Kron_model.iad
      in
      Format.printf "  entry table: %.1f MB@." (float_of_int table_bytes /. 1048576.0);
      Cdr_obs.Metrics.set_gauge "bench.kron_iad_table_bytes" (float_of_int table_bytes);
      Cdr_obs.Metrics.set_gauge "bench.kron_solve_seconds"
        ~labels:[ ("solver", "multigrid") ]
        mg_t;
      Cdr_obs.Metrics.set_gauge "bench.kron_solve_iterations"
        ~labels:[ ("solver", "multigrid") ]
        (float_of_int mg.Markov.Solution.iterations);
      Cdr_obs.Metrics.set_gauge "bench.kron_ber" ber
  | [] -> ());
  (* the headline rung: the first >= 1e6-state model, a capped power run —
     the matrix-free apply is the whole per-iteration cost at this scale,
     on a chain whose CSR was never assembled. *)
  (match List.find_opt (fun (_, _, m) -> Cdr.Kron_model.n_states m >= 1_000_000) rungs with
  | None -> ()
  | Some (grid, _, model) ->
      let n = Cdr.Kron_model.n_states model in
      Format.printf "@.headline rung: grid %d, %d states (>= 1e6), never materialized@." grid n;
      let op = Cdr.Kron_model.operator model in
      let pw, pw_t = time (fun () -> Markov.Power.solve_op ~tol:1e-9 ~max_iter:300 op) in
      Format.printf "  power (capped 300):  %4d iterations  residual %.2e  %.1fs@."
        pw.Markov.Solution.iterations pw.Markov.Solution.residual pw_t;
      Cdr_obs.Metrics.set_gauge "bench.kron_solve_seconds" ~labels:[ ("solver", "power") ] pw_t;
      Cdr_obs.Metrics.set_gauge "bench.kron_solve_iterations"
        ~labels:[ ("solver", "power") ]
        (float_of_int pw.Markov.Solution.iterations));
  Format.printf
    "@.the factor matrices are KBs at every rung; the apply never touches CSR-of-the-product@.";
  Format.printf
    "storage, so a power rung's footprint is the two iteration vectors (the IAD rung adds@.";
  Format.printf "its entry table).@."

(* the CI-sized matrix-free smoke: a >= 2e5-state power solve (capped
   iteration budget — the assertion is that the full-product operator
   builds, verifies row-stochastic, and iterates at that scale, never wall
   time). The 60 steps must cut the uniform start's residual at least
   tenfold, and the same steps under a jobs=2 pool must give bit-identical
   pi, so pooled Kronecker applies stay checked at this size too. make
   kron-smoke asserts the gauges below from BENCH.json. *)
let exp_kron_smoke () =
  section "KRON-SMOKE: large-state matrix-free power solve (CI-sized)";
  let cfg =
    Cdr.Config.create_exn
      {
        Cdr.Config.default with
        Cdr.Config.grid_points = 2048;
        n_phases = 16;
        counter_length = 9;
        max_run = 3;
      }
  in
  let model = Cdr.Kron_model.build cfg in
  let op = Cdr.Kron_model.operator model in
  let n = Cdr.Kron_model.n_states model in
  Format.printf "operator: %s@." (Cdr_op.label op);
  let solve ?pool () = Markov.Power.solve_op ~tol:1e-12 ~max_iter:60 ?pool op in
  let sol, dt = time solve in
  let negatives = Array.exists (fun v -> v < 0.0) sol.Markov.Solution.pi in
  let uniform = Array.make n (1.0 /. float_of_int n) in
  let y = Array.make n 0.0 in
  Cdr_op.vec_mul_into op uniform y;
  let start_residual = Linalg.Vec.dist_l1 y uniform in
  let residual = sol.Markov.Solution.residual in
  Format.printf "power (capped 60): %d iterations in %.2fs, residual %.2e (uniform start %.2e)@."
    sol.Markov.Solution.iterations dt residual start_residual;
  let pooled = Cdr_par.Pool.with_pool ~jobs:2 (fun pool -> solve ~pool ()) in
  let bits s = Array.map Int64.bits_of_float s.Markov.Solution.pi in
  let identical = bits sol = bits pooled in
  Format.printf "jobs=2 pool: pi %s@." (if identical then "identical" else "DIFFERS");
  let ok =
    n >= 200_000 && (not negatives) && Float.is_finite residual && residual < 0.5
    && residual <= start_residual /. 10.0
    && identical
  in
  Cdr_obs.Metrics.set_gauge "bench.kron_smoke_states" (float_of_int n);
  Cdr_obs.Metrics.set_gauge "bench.kron_smoke_ok" (if ok then 1.0 else 0.0);
  Format.printf "%s@."
    (if ok then "kron smoke ok: stochastic matrix-free apply at >= 2e5 states"
     else "KRON SMOKE FAILED")

(* ---------- ENV-SCALING: Markov-modulated jitter environments ---------- *)

(* a 4-regime environment for the scaling rungs: thermal state x aggressor
   activity, mild diagonal-dominant switching *)
let env4 =
  Cdr_env.Env.create_exn ~name:"bursty-thermal"
    ~regimes:
      [|
        Cdr_env.Env.regime "cool";
        Cdr_env.Env.regime ~sigma_scale:1.15 "warm";
        Cdr_env.Env.regime ~sigma_scale:1.6 "cool-burst";
        Cdr_env.Env.regime ~sigma_scale:2.0 ~p01:0.45 ~p10:0.55 "warm-burst";
      |]
    ~switch:
      [|
        [| 0.90; 0.05; 0.04; 0.01 |];
        [| 0.05; 0.90; 0.01; 0.04 |];
        [| 0.20; 0.02; 0.76; 0.02 |];
        [| 0.02; 0.20; 0.02; 0.76 |];
      |]

let exp_env () =
  section "ENV-SCALING: Markov-modulated environments, env (x) CDR composed chains";
  (* default-grid rungs: 2- and 4-regime environments, both backends solved
     to tolerance — the assertion is backend parity of the regime-weighted
     BER, never wall time *)
  let cfg = Cdr.Config.default in
  let rungs = [ ("bursty", Cdr_env.Env.bursty ()); ("bursty-thermal", env4) ] in
  Format.printf "%-16s %-8s %-9s %-6s %-10s %-10s %-12s %-12s@." "env" "backend" "states" "iters"
    "build (s)" "solve (s)" "ber" "slip rate";
  let ok = ref true in
  let solved =
    List.map
      (fun (name, env) ->
        let bers =
          List.map
            (fun backend ->
              let composed = Cdr_env.Composed.build ~backend env cfg in
              let sol, solve_t = time (fun () -> Cdr_env.Composed.solve composed) in
              let pi = sol.Markov.Solution.pi in
              let ber = Cdr_env.Composed.ber composed ~pi in
              let slip = Cdr_env.Composed.slip_rate composed ~pi in
              let b = Cdr_op.kind_string backend in
              Format.printf "%-16s %-8s %-9d %-6d %-10.2f %-10.2f %-12.3e %-12.3e@." name b
                composed.Cdr_env.Composed.n_states sol.Markov.Solution.iterations
                composed.Cdr_env.Composed.build_seconds solve_t ber slip;
              if not sol.Markov.Solution.converged then ok := false;
              let labels = [ ("env", name); ("backend", b) ] in
              Cdr_obs.Metrics.set_gauge "bench.env_states" ~labels
                (float_of_int composed.Cdr_env.Composed.n_states);
              Cdr_obs.Metrics.set_gauge "bench.env_build_seconds" ~labels
                composed.Cdr_env.Composed.build_seconds;
              Cdr_obs.Metrics.set_gauge "bench.env_solve_seconds" ~labels solve_t;
              Cdr_obs.Metrics.set_gauge "bench.env_ber" ~labels ber;
              ber)
            [ `Csr; `Kron ]
        in
        match bers with
        | [ csr; kron ] ->
            let parity = Float.abs (csr -. kron) <= 1e-6 *. Float.max csr kron in
            if not parity then ok := false;
            (name, parity)
        | _ -> (name, false))
      rungs
  in
  List.iter
    (fun (name, parity) ->
      Format.printf "%s backend parity: %s@." name (if parity then "ok" else "DISAGREE"))
    solved;
  (* the headline rung: a >= 1e6-state composed chain through the matrix-free
     backend (2 regimes x the EXP-SCALE 512-bin family = 1,048,576 states) —
     the composed transition matrix is never materialized. Capped power run,
     then the regime-conditional phase-error densities off the iterate. *)
  let big_cfg =
    Cdr.Config.create_exn
      {
        Cdr.Config.default with
        Cdr.Config.grid_points = 512;
        n_phases = 16;
        counter_length = 16;
        max_run = 16;
      }
  in
  let env = Cdr_env.Env.bursty () in
  let composed, build_t = time (fun () -> Cdr_env.Composed.build ~backend:`Kron env big_cfg) in
  let n = composed.Cdr_env.Composed.n_states in
  Format.printf "@.headline rung: bursty (x) 512-bin family, %d composed states, kron backend@." n;
  let sol, solve_t =
    time (fun () ->
        Markov.Power.solve_op ~tol:1e-9 ~max_iter:60 (Cdr_env.Composed.operator composed))
  in
  Format.printf "  build %.1fs; power (capped 60): %d iterations  residual %.2e  %.1fs@." build_t
    sol.Markov.Solution.iterations sol.Markov.Solution.residual solve_t;
  let pi = sol.Markov.Solution.pi in
  let probs = Cdr_env.Composed.regime_probs composed ~pi in
  let densities = Cdr_env.Composed.regime_conditional_densities composed ~pi in
  Array.iteri
    (fun e (g : Cdr_env.Env.regime) ->
      let d = densities.(e) in
      let mass = Array.fold_left ( +. ) 0.0 d in
      (* center-half mass of the conditional density: a regime-resolved
         lock-quality summary that is meaningful even off a capped iterate *)
      let m = Array.length d in
      let center = ref 0.0 in
      for i = m / 4 to (3 * m / 4) - 1 do
        center := !center +. d.(i)
      done;
      Format.printf "  regime %-12s P=%.4f  conditional density mass %.3f (center half %.3f)@."
        g.Cdr_env.Env.name probs.(e) mass !center)
    composed.Cdr_env.Composed.env.Cdr_env.Env.regimes;
  let negatives = Array.exists (fun v -> v < 0.0) pi in
  let big_ok =
    n >= 1_000_000 && (not negatives)
    && Float.is_finite sol.Markov.Solution.residual
    && sol.Markov.Solution.residual < 0.5
  in
  if not big_ok then ok := false;
  Cdr_obs.Metrics.set_gauge "bench.env_headline_states" (float_of_int n);
  Cdr_obs.Metrics.set_gauge "env.ladder_ok" (if !ok then 1.0 else 0.0);
  Format.printf "%s@."
    (if !ok then "env ladder ok: backends agree and the 1e6-state composed rung solves"
     else "ENV LADDER FAILED")

(* ---------- PARALLEL-SCALING: the Cdr_par domain pool ---------- *)

(* [interleaved ~reps pools run]: [reps] rounds, each calling [run pool]
   once per pool in list order (j1, j2, j4, j8, j1, ...), so background load
   that drifts over seconds taxes every job count alike. [run] returns its
   value and its wall; the result lists, per pool, the runs sorted by wall.
   The pools are created by the caller, so no run times domain start-up. *)
let interleaved ~reps pools run =
  let runs = Array.make (List.length pools) [] in
  for _ = 1 to reps do
    List.iteri (fun k pool -> runs.(k) <- run pool :: runs.(k)) pools
  done;
  List.map (List.sort (fun (_, a) (_, b) -> compare a b)) (Array.to_list runs)

(* the median run of a wall-sorted list, and the wall range as text *)
let median_run sorted = List.nth sorted (List.length sorted / 2)

let wall_range sorted =
  Printf.sprintf "%.2f-%.2f" (snd (List.hd sorted)) (snd (List.nth sorted (List.length sorted - 1)))

let exp_parallel () =
  section "PARALLEL-SCALING: domain-pool speedup on sweeps and SpMV (Cdr_par)";
  let job_counts = [ 1; 2; 4; 8 ] in
  let jmax = List.fold_left max 1 job_counts in
  let reps = 5 in
  Format.printf
    "host: %d recommended domain(s); speedups are relative to jobs=1; every wall is the@."
    (Domain.recommended_domain_count ());
  Format.printf "median of %d runs interleaved over the job counts, pools started beforehand@.@."
    reps;
  let pools = List.map (fun jobs -> Cdr_par.Pool.create ~jobs ()) job_counts in
  (* (a) the embarrassingly parallel workload: one stationary solve per
     sweep point, one point per pool worker *)
  let base =
    {
      Cdr.Config.default with
      Cdr.Config.grid_points = 32;
      n_phases = 8;
      counter_length = 3;
      max_run = 4;
      nw_max_atoms = 17;
      sigma_w = 0.08;
    }
  in
  let lengths = [ 2; 3; 4; 5; 6; 8; 12; 16 ] in
  Format.printf "(a) counter-length sweep, %d points (grid %d):@." (List.length lengths)
    base.Cdr.Config.grid_points;
  Format.printf "  %-6s %-10s %-12s %-10s %-14s@." "jobs" "wall (s)" "range (s)" "speedup"
    "BER bits";
  let runs =
    interleaved ~reps pools (fun pool ->
        let points, dt =
          time (fun () -> Cdr.Sweep.counter_lengths ~ctx:(Cdr.Context.make ~pool ()) base lengths)
        in
        (List.map (fun p -> Int64.bits_of_float p.Cdr.Sweep.report.Cdr.Report.ber) points, dt))
  in
  let reference = fst (List.hd (List.hd runs)) in
  let t1 = snd (median_run (List.hd runs)) in
  List.iter2
    (fun jobs sorted ->
      let dt = snd (median_run sorted) in
      Format.printf "  %-6d %-10.2f %-12s %-10.2f %-14s@." jobs dt (wall_range sorted) (t1 /. dt)
        (if List.for_all (fun (bers, _) -> bers = reference) sorted then "identical"
         else "DIFFER (bug!)"))
    job_counts runs;
  (* (b) the inner kernel: x * P on a stiff chain, the hot loop of power
     iteration and of every multigrid smoother *)
  let cfg =
    Cdr.Config.create_exn { Cdr.Config.default with Cdr.Config.grid_points = 256; sigma_w = 0.04 }
  in
  let model = Cdr.Model.build cfg in
  let chain = model.Cdr.Model.chain in
  let tpm = Markov.Chain.tpm chain in
  let n = Markov.Chain.n_states chain in
  let products = 400 in
  Format.printf "@.(b) x*P kernel, %d states / %d nnz, %d products:@." n (Sparse.Csr.nnz tpm)
    products;
  Format.printf "  %-6s %-10s %-12s %-10s@." "jobs" "wall (s)" "range (s)" "speedup";
  let x = Array.make n (1.0 /. float_of_int n) in
  let y = Array.make n 0.0 in
  let runs =
    interleaved ~reps pools (fun pool ->
        time (fun () ->
            for _ = 1 to products do
              Sparse.Csr.vec_mul_into ~pool x tpm y
            done))
  in
  let t1 = snd (median_run (List.hd runs)) in
  List.iter2
    (fun jobs sorted ->
      let dt = snd (median_run sorted) in
      Format.printf "  %-6d %-10.2f %-12s %-10.2f@." jobs dt (wall_range sorted) (t1 /. dt))
    job_counts runs;
  (* (c) the V-cycle interior under the pool: the serial Gauss-Seidel
     sweeps between pooled scatter/aggregation/prolongation and the
     residual. Determinism here is the strong claim: pi must be bitwise
     identical for every job count. Recording is forced, so every leaf stage
     of every cycle leaves a [multigrid.<stage>] span with its level; each
     run sums its stage spans per (stage, level), and the attribution column
     is that sum over the run's wall. *)
  Format.printf "@.(c) multigrid V-cycles, %d states:@." n;
  Format.printf "  %-6s %-10s %-12s %-10s %-14s %-10s@." "jobs" "wall (s)" "range (s)" "speedup"
    "pi bits" "attributed";
  let mg_setup = Markov.Multigrid.setup ~hierarchy:(Cdr.Model.hierarchy model) chain in
  let ref_bits = ref None in
  Cdr_obs.Span.set_forced true;
  let runs =
    interleaved ~reps pools (fun pool ->
        Cdr_obs.Span.reset ();
        let t0 = Cdr_obs.Clock.monotonic () in
        let sol, _ = Markov.Multigrid.solve_with ~tol:1e-10 ~pool mg_setup chain in
        let dt = Cdr_obs.Clock.monotonic () -. t0 in
        (* the stage spans are the run's roots: none of them nests *)
        let stages = Hashtbl.create 64 in
        List.iter
          (fun sp ->
            let key =
              (sp.Cdr_obs.Span.name, Option.value ~default:"-" (List.assoc_opt "level" sp.attrs))
            in
            Hashtbl.replace stages key
              (sp.dur +. Option.value ~default:0.0 (Hashtbl.find_opt stages key)))
          (Cdr_obs.Span.roots ());
        let bits = Array.map Int64.bits_of_float sol.Markov.Solution.pi in
        if !ref_bits = None then ref_bits := Some bits;
        ((stages, !ref_bits = Some bits), dt))
  in
  Cdr_obs.Span.set_forced false;
  Cdr_obs.Span.reset ();
  List.iter Cdr_par.Pool.shutdown pools;
  let attributed stages = Hashtbl.fold (fun _ d acc -> acc +. d) stages 0.0 in
  let t1 = snd (median_run (List.hd runs)) in
  List.iter2
    (fun jobs sorted ->
      let (stages, _), dt = median_run sorted in
      let coverage = attributed stages /. dt in
      Cdr_obs.Metrics.set_gauge "bench.mg_seconds" ~labels:[ ("jobs", string_of_int jobs) ] dt;
      Cdr_obs.Metrics.set_gauge "bench.mg_span_coverage"
        ~labels:[ ("jobs", string_of_int jobs) ]
        coverage;
      Format.printf "  %-6d %-10.2f %-12s %-10.2f %-14s %5.1f%%@." jobs dt (wall_range sorted)
        (t1 /. dt)
        (if List.for_all (fun ((_, same), _) -> same) sorted then "identical" else "DIFFER (bug!)")
        (100. *. coverage))
    job_counts runs;
  (* per (stage, level): the median over a job count's runs of that stage's
     summed span time, at jobs=1 and at the largest job count *)
  let stage_median sorted key =
    let ds =
      List.sort compare
        (List.map
           (fun ((stages, _), _) -> Option.value ~default:0.0 (Hashtbl.find_opt stages key))
           sorted)
    in
    List.nth ds (List.length ds / 2)
  in
  let runs1 = List.hd runs and runs_max = List.nth runs (List.length runs - 1) in
  (* every run of one setup visits the same (stage, level) pairs *)
  let keys = List.of_seq (Hashtbl.to_seq_keys (fst (fst (List.hd runs1)))) in
  let rows =
    List.stable_sort
      (fun (_, _, a) (_, _, b) -> compare b a)
      (List.map (fun key -> (key, stage_median runs1 key, stage_median runs_max key)) keys)
  in
  let shown = 12 in
  Format.printf "@.per-stage span time (s, median of %d runs), the %d largest at jobs=%d of %d:@."
    reps shown jmax (List.length rows);
  Format.printf "  %-22s %-6s %-10s %-10s %-10s@." "stage" "level" "jobs=1"
    (Printf.sprintf "jobs=%d" jmax)
    "growth";
  List.iteri
    (fun i ((name, level), d1, dmax) ->
      if i < shown then
        Format.printf "  %-22s %-6s %-10.3f %-10.3f %+.3f@." name level d1 dmax (dmax -. d1))
    rows;
  (match
     List.stable_sort (fun (_, a1, amax) (_, b1, bmax) -> compare (bmax -. b1) (amax -. a1)) rows
   with
  | ((name, level), d1, dmax) :: _ ->
      Format.printf
        "@.top overhead stage: %s (level %s), %.3f s at jobs=1 -> %.3f s at jobs=%d (%+.3f s)@."
        name level d1 dmax jmax (dmax -. d1)
  | [] -> ());
  Format.printf
    "@.results are bit-identical across job counts by construction (fixed slot grids,@.";
  Format.printf
    "order-preserving reduction); on a single-core host the pool degrades gracefully@.";
  Format.printf "(expect speedup <= 1 there — the scaling needs real cores).@."

(* ---------- MG-SCALING: the jobs=1 vs jobs=4 determinism gate ---------- *)

(* The ROADMAP's "positive parallel scaling" question, distilled to one
   number: a multigrid solve on the default grid at jobs=1 and jobs=4,
   through one shared setup, best-of-reps walls. Every pooled stage of the
   V-cycle (scatter, aggregation, prolongation, residual) is one batch
   through the pool's work queue, so the ratio shows whether those batches
   pay for their fan-out.

   [mg.speedup_j4] is that measured ratio, recorded and printed but not
   gated: the ratio of two walls on a shared host moves with background
   load. [mg.bitwise_j4_ok] is the CI gate (make bench-smoke greps it): 1
   when the jobs=4 stationary vector is bitwise the jobs=1 one, a property
   of the code that no host load can move. *)
let exp_scaling () =
  section "MG-SCALING: multigrid wall, jobs=1 vs jobs=4";
  let cfg =
    Cdr.Config.create_exn { Cdr.Config.default with Cdr.Config.sigma_w = 0.04 }
  in
  let model = Cdr.Model.build cfg in
  let chain = model.Cdr.Model.chain in
  let mg_setup = Markov.Multigrid.setup ~hierarchy:(Cdr.Model.hierarchy model) chain in
  let reps = 4 in
  Format.printf "chain: %d states; best of %d interleaved solves after warmup@.@."
    model.Cdr.Model.n_states reps;
  (* both pools live for the whole measurement and the reps interleave
     (j1, j4, j1, j4, ...): background load on a shared host drifts over
     seconds, and interleaving keeps it from taxing one side only *)
  let sol1, t1, sol4, t4 =
    Cdr_par.Pool.with_pool ~jobs:1 (fun pool1 ->
        Cdr_par.Pool.with_pool ~jobs:4 (fun pool4 ->
            let solve pool =
              time (fun () -> Markov.Multigrid.solve_with ~tol:1e-10 ~pool mg_setup chain)
            in
            (* warmup solves: fault in the code paths and the setup's
               workspaces so the timed reps measure steady state *)
            let sol1 = fst (fst (solve pool1)) in
            let sol4 = fst (fst (solve pool4)) in
            let best1 = ref Float.infinity and best4 = ref Float.infinity in
            for _ = 1 to reps do
              let _, dt1 = solve pool1 in
              if dt1 < !best1 then best1 := dt1;
              let _, dt4 = solve pool4 in
              if dt4 < !best4 then best4 := dt4
            done;
            (sol1, !best1, sol4, !best4)))
  in
  let bits s = Array.map Int64.bits_of_float s.Markov.Solution.pi in
  let identical = bits sol1 = bits sol4 in
  let speedup = t1 /. t4 in
  Format.printf "  %-6s %-10s %-10s@." "jobs" "wall (s)" "speedup";
  Format.printf "  %-6d %-10.3f %-10.2f@." 1 t1 1.0;
  Format.printf "  %-6d %-10.3f %-10.2f  pi %s@." 4 t4 speedup
    (if identical then "identical" else "DIFFER (bug!)");
  Cdr_obs.Metrics.set_gauge "mg.scaling_seconds" ~labels:[ ("jobs", "1") ] t1;
  Cdr_obs.Metrics.set_gauge "mg.scaling_seconds" ~labels:[ ("jobs", "4") ] t4;
  Cdr_obs.Metrics.set_gauge "mg.speedup_j4" speedup;
  Cdr_obs.Metrics.set_gauge "mg.bitwise_j4_ok" (if identical then 1.0 else 0.0);
  Format.printf "@.%s@."
    (if identical then
       Printf.sprintf "scaling gate ok: pi bitwise equal at jobs 1 and 4 (speedup %.2fx)" speedup
     else "SCALING GATE FAILED: results differ across job counts")

(* ---------- MG-LADDER: grid independence up to >= 1e6 states ---------- *)

(* The multigrid claim the paper leans on, measured as a ladder: the
   EXP-SCALE configuration family (phases 16 / counter 16 / max-run 16)
   solved to tolerance at each grid rung, finishing at >= 1e6 reachable
   states. The number under test is the cycle count: a true multilevel
   method holds it near-constant while the state count grows 8x. Plain
   V-cycles do NOT deliver that here — pairwise aggregation with
   piecewise-constant transfers loses per-cycle convergence as the
   hierarchy deepens (13 -> 210 cycles from grid 128 to 1024) — so the
   ladder runs W-cycles with 8/8 smoothing, where the count stays flat.
   The default-grid rung (128 bins) is the baseline; [mg.ladder_ok]
   asserts the top rung reaches >= 1e6 states, converges, and needs at
   most 2x the baseline's cycles. *)
let exp_ladder () =
  section "MG-LADDER: W-cycle counts up the grid ladder to >= 1e6 states";
  let tol = 1e-9 in
  let cfg_of grid_points =
    Cdr.Config.create_exn
      {
        Cdr.Config.default with
        Cdr.Config.grid_points;
        n_phases = 16;
        counter_length = 16;
        max_run = 16;
      }
  in
  Format.printf "(tolerance %g, W-cycles, pre/post smoothing 8/8, structured hierarchy)@.@."
    tol;
  Format.printf "%-6s %-9s %-10s %-8s %-10s %-10s %-10s@." "grid" "states" "build (s)" "cycles"
    "solve (s)" "residual" "cyc/base";
  let baseline_cycles = ref 0 in
  let rungs =
    List.map
      (fun grid ->
        let cfg = cfg_of grid in
        let model, build_t = time (fun () -> Cdr.Model.build cfg) in
        let (sol, _stats), mg_t =
          time (fun () ->
              Markov.Multigrid.solve ~tol ~max_cycles:250 ~pre_smooth:8 ~post_smooth:8
                ~cycle:`W ~hierarchy:(Cdr.Model.hierarchy model) model.Cdr.Model.chain)
        in
        let n = model.Cdr.Model.n_states in
        let cycles = sol.Markov.Solution.iterations in
        if !baseline_cycles = 0 then baseline_cycles := cycles;
        let ratio = float_of_int cycles /. float_of_int (max 1 !baseline_cycles) in
        let g = string_of_int grid in
        Cdr_obs.Metrics.set_gauge "mg.ladder_states" ~labels:[ ("grid", g) ] (float_of_int n);
        Cdr_obs.Metrics.set_gauge "mg.ladder_build_seconds" ~labels:[ ("grid", g) ] build_t;
        Cdr_obs.Metrics.set_gauge "mg.ladder_cycles" ~labels:[ ("grid", g) ]
          (float_of_int cycles);
        Cdr_obs.Metrics.set_gauge "mg.ladder_seconds" ~labels:[ ("grid", g) ] mg_t;
        Format.printf "%-6d %-9d %-10.1f %-8d %-10.1f %-10.1e %-10.2f%s@." grid n build_t cycles
          mg_t sol.Markov.Solution.residual ratio
          (if sol.Markov.Solution.converged then "" else "  NOT CONVERGED");
        (n, cycles, sol.Markov.Solution.converged))
      [ 128; 256; 512; 1056 ]
  in
  let top_n, top_cycles, top_converged =
    List.fold_left (fun (an, ac, av) (n, c, v) -> if n > an then (n, c, v) else (an, ac, av))
      (0, 0, false) rungs
  in
  let ratio = float_of_int top_cycles /. float_of_int (max 1 !baseline_cycles) in
  let ok = top_n >= 1_000_000 && top_converged && ratio <= 2.0 in
  Cdr_obs.Metrics.set_gauge "mg.ladder_top_states" (float_of_int top_n);
  Cdr_obs.Metrics.set_gauge "mg.ladder_cycle_ratio" ratio;
  Cdr_obs.Metrics.set_gauge "mg.ladder_ok" (if ok then 1.0 else 0.0);
  Format.printf "@.%s@."
    (if ok then
       Printf.sprintf
         "ladder ok: %d states solved to tolerance in %d cycles (%.2fx the %d-cycle baseline)"
         top_n top_cycles ratio !baseline_cycles
     else
       Printf.sprintf "LADDER FAILED: top rung %d states, converged=%b, cycle ratio %.2f" top_n
         top_converged ratio)

(* ---------- WARM-VS-COLD: the setup/solve split and continuation sweeps ---------- *)

let exp_warm () =
  section "WARM-VS-COLD: warm-started continuation sweep vs independent cold solves";
  let base = Cdr.Config.default in
  (* a fine continuation sweep: adjacent sigmas close enough that most share
     one n_w lattice support, hence one reachable set and sparsity pattern —
     the regime warm-starting is built for (resolving BER vs sigma finely) *)
  let sigmas = List.init 16 (fun i -> 0.0610 +. (0.0001 *. float_of_int i)) in
  Format.printf "sigma sweep, %d points on the default grid (%d bins):@.@." (List.length sigmas)
    base.Cdr.Config.grid_points;
  let counter_of name =
    List.fold_left
      (fun acc s ->
        match s.Cdr_obs.Metrics.kind with
        | Cdr_obs.Metrics.Counter n when s.Cdr_obs.Metrics.name = name -> acc + n
        | _ -> acc)
      0 (Cdr_obs.Metrics.dump ())
  in
  let cold_points, cold_t = time (fun () -> Cdr.Sweep.sigma_w_values base sigmas) in
  let hits0 = counter_of "solver_cache.hits" and miss0 = counter_of "solver_cache.misses" in
  let warm_points, warm_t =
    let ctx = Cdr.Context.make ~strategy:Cdr.Context.warm () in
    time (fun () -> Cdr.Sweep.sigma_w_values ~ctx base sigmas)
  in
  let hits = counter_of "solver_cache.hits" - hits0
  and misses = counter_of "solver_cache.misses" - miss0 in
  (* same convergence test either way; only the starting point and the
     symbolic setup are reused, so every point must agree to solver accuracy *)
  let worst =
    List.fold_left2
      (fun acc c w ->
        let bc = c.Cdr.Sweep.report.Cdr.Report.ber and bw = w.Cdr.Sweep.report.Cdr.Report.ber in
        Float.max acc (Float.abs (bc -. bw) /. Float.max bc 1e-300))
      0.0 cold_points warm_points
  in
  Format.printf "  cold: %.2fs  warm: %.2fs  speedup: %.2fx@." cold_t warm_t (cold_t /. warm_t);
  Format.printf "  multigrid setup cache: %d hits, %d misses over %d points@." hits misses
    (List.length sigmas);
  Format.printf "  worst relative BER deviation: %.2e (%s)@.@." worst
    (if worst <= 1e-6 then "within solver tolerance" else "EXCEEDS TOLERANCE (bug!)");
  Format.printf "%a@." Cdr.Sweep.pp_points warm_points

(* ---------- Bechamel kernel micro-benchmarks ---------- *)

let kernels () =
  section "KERNELS: Bechamel micro-benchmarks of the computational kernels";
  let open Bechamel in
  let cfg_small = { Cdr.Config.default with Cdr.Config.grid_points = 64; max_run = 4 } in
  let model = Cdr.Model.build cfg_small in
  let chain = model.Cdr.Model.chain in
  let tpm = Markov.Chain.tpm chain in
  let transposed = Sparse.Csr.transpose tpm in
  let n = Markov.Chain.n_states chain in
  let x = Array.make n (1.0 /. float_of_int n) in
  let y = Array.make n 0.0 in
  let tests =
    [
      Test.make ~name:"spmv" (Staged.stage (fun () -> Sparse.Csr.vec_mul_into x tpm y));
      Test.make ~name:"gs-sweep"
        (Staged.stage (fun () ->
             let z = Array.copy x in
             Markov.Splitting.sweeps_gauss_seidel ~transposed z 1));
      Test.make ~name:"build-direct"
        (Staged.stage (fun () -> ignore (Cdr.Model.build_direct cfg_small)));
      Test.make ~name:"mg-solve"
        (let ctx = Cdr.Context.make ~tol:1e-8 () in
         Staged.stage (fun () -> ignore (Cdr.Model.solve ~ctx model)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ v ] ->
              Cdr_obs.Metrics.set_gauge "bench.kernel_ns" ~labels:[ ("kernel", name) ] v;
              if v > 1e6 then Format.printf "  %-24s %12.3f ms/run@." name (v /. 1e6)
              else Format.printf "  %-24s %12.0f ns/run@." name v
          | Some _ | None -> Format.printf "  %-24s (no estimate)@." name)
        results)
    tests

let sections =
  [
    ("f2", exp_f2);
    ("f3", exp_f3);
    ("f4", exp_f4);
    ("f5", exp_f5);
    ("solve", exp_solve);
    ("slip", exp_slip);
    ("mc", exp_mc);
    ("scale", exp_scale);
    ("ablation-mg", ablation_multigrid);
    ("ablation-nw", ablation_nw_discretization);
    ("ablation-dz", ablation_dead_zone);
    ("freq-track", exp_freq_track);
    ("extensions", exp_extensions);
    ("telemetry", exp_telemetry);
    ("smoke", exp_smoke);
    ("kron", exp_kron);
    ("kron-smoke", exp_kron_smoke);
    ("env", exp_env);
    ("parallel", exp_parallel);
    ("scaling", exp_scaling);
    ("ladder", exp_ladder);
    ("warm", exp_warm);
    ("kernels", kernels);
  ]

(* ---------- machine-readable summary: BENCH.json ---------- *)

(* One flat counter snapshot ("name" or "name{k=v,...}" -> value); per-section
   deltas against it make the JSON self-contained without resetting the live
   registry mid-run. *)
let series_key s =
  match s.Cdr_obs.Metrics.labels with
  | [] -> s.Cdr_obs.Metrics.name
  | labels ->
      s.Cdr_obs.Metrics.name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"

let counters_snapshot () =
  List.filter_map
    (fun s ->
      match s.Cdr_obs.Metrics.kind with
      | Cdr_obs.Metrics.Counter n -> Some (series_key s, n)
      | _ -> None)
    (Cdr_obs.Metrics.dump ())

(* gauges the section set or moved (bench sections use gauges for their own
   measured numbers, e.g. kernel ns/run and multigrid wall times) *)
let gauges_snapshot () =
  List.filter_map
    (fun s ->
      match s.Cdr_obs.Metrics.kind with
      | Cdr_obs.Metrics.Gauge v -> Some (series_key s, v)
      | _ -> None)
    (Cdr_obs.Metrics.dump ())

let gauges_delta before after =
  List.filter_map
    (fun (k, v) ->
      if List.assoc_opt k before = Some v then None else Some (k, Cdr_obs.Jsonl.Num v))
    after

let counters_delta before after =
  List.filter_map
    (fun (k, n) ->
      let d = n - Option.value ~default:0 (List.assoc_opt k before) in
      if d <> 0 then Some (k, Cdr_obs.Jsonl.Num (float_of_int d)) else None)
    after

let bench_json_path =
  match Sys.getenv_opt "CDR_BENCH_JSON" with Some p -> p | None -> "BENCH.json"

(* sections already in the file are preserved: a filtered bench run only
   overwrites the sections it actually ran *)
let previous_sections () =
  if not (Sys.file_exists bench_json_path) then []
  else
    try
      let ic = open_in bench_json_path in
      let contents = In_channel.input_all ic in
      close_in ic;
      match Cdr_obs.Jsonl.of_string (String.trim contents) with
      | Cdr_obs.Jsonl.Obj fields -> (
          match List.assoc_opt "sections" fields with
          | Some (Cdr_obs.Jsonl.Obj secs) -> secs
          | _ -> [])
      | _ -> []
    with Failure _ | Sys_error _ -> []

let write_bench_json per_section total =
  let sections_json =
    List.map
      (fun (name, seconds, counters, gauges) ->
        ( name,
          Cdr_obs.Jsonl.Obj
            [
              ("seconds", Cdr_obs.Jsonl.Num seconds);
              ("jobs", Cdr_obs.Jsonl.Num (float_of_int (Cdr_par.Pool.default_jobs ())));
              ("counters", Cdr_obs.Jsonl.Obj counters);
              ("gauges", Cdr_obs.Jsonl.Obj gauges);
            ] ))
      per_section
  in
  let fresh = List.map fst sections_json in
  let kept =
    List.filter (fun (k, _) -> not (List.mem k fresh)) (previous_sections ())
  in
  let json =
    Cdr_obs.Jsonl.Obj
      [
        ("total_seconds", Cdr_obs.Jsonl.Num total);
        ("sections", Cdr_obs.Jsonl.Obj (kept @ sections_json));
      ]
  in
  let oc = open_out bench_json_path in
  output_string oc (Cdr_obs.Jsonl.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "machine-readable summary written to %s@." bench_json_path

let () =
  Cdr_obs.Sink.init_from_env ();
  let filters = List.tl (Array.to_list Sys.argv) in
  let is_prefix p s = String.length p <= String.length s && String.sub s 0 (String.length p) = p in
  let wanted name = filters = [] || List.exists (fun f -> is_prefix f name) filters in
  (match List.filter (fun (name, _) -> wanted name) sections with
  | [] ->
      Format.eprintf "no section matches %s; available: %s@."
        (String.concat " " filters)
        (String.concat " " (List.map fst sections));
      exit 1
  | selected ->
      let per_section =
        List.map
          (fun (name, f) ->
            let before = counters_snapshot () in
            let gauges_before = gauges_snapshot () in
            let (), dt = time f in
            ( name,
              dt,
              counters_delta before (counters_snapshot ()),
              gauges_delta gauges_before (gauges_snapshot ()) ))
          selected
      in
      let total = List.fold_left (fun acc (_, dt, _, _) -> acc +. dt) 0.0 per_section in
      Format.printf "@.total bench time: %.1fs (%d/%d sections)@." total (List.length selected)
        (List.length sections);
      write_bench_json per_section total);
  section "TELEMETRY SUMMARY: metrics registry after the run";
  Format.printf "%a@." Cdr_obs.Metrics.pp ();
  Cdr_obs.Sink.close_all ()
