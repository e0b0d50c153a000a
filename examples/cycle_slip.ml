(* Cycle-slip study: mean time between loss-of-synchronization events.

   A cycle slip — the phase error escaping across half a bit interval — is a
   catastrophic event (a whole bit gained or lost); its mean recurrence time
   is the inverse of a boundary flux of the same stationary distribution
   that yields the BER, and the mean time to the first slip from lock is
   the same flux on the chain restarted at lock after every slip. The
   experiment sweeps the drift strength and cross-checks the
   analytic slip rate against a Monte-Carlo run where slips are frequent
   enough to count.

   Run with: dune exec examples/cycle_slip.exe *)

let () =
  let base =
    {
      Cdr.Config.default with
      Cdr.Config.grid_points = 64;
      n_phases = 16;
      counter_length = 4;
      sigma_w = 0.12;
    }
  in
  Format.printf "=== mean time between cycle slips vs drift ===@.@.";
  Format.printf "%-12s %-14s %-14s %-16s@." "drift mean" "slip rate" "MTBF (bits)" "first-slip time";
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
      let first = Cdr.Cycle_slip.mean_first_slip_time model in
      Format.printf "%-12g %-14.3e %-14.3e %-16.3e@." mean_steps rate mtbf first)
    [ 0.1; 0.2; 0.4; 0.6; 0.8 ];

  Format.printf "@.=== Monte-Carlo cross-check at strong drift ===@.@.";
  let cfg =
    Cdr.Config.create_exn
      { base with Cdr.Config.nr = Prob.Jitter.drift ~max_steps:2 ~mean_steps:0.8 () }
  in
  let model = Cdr.Model.build cfg in
  let solution = Cdr.Model.solve model in
  let predicted = Cdr.Cycle_slip.rate model ~pi:solution.Markov.Solution.pi in
  let bits = 500_000 in
  let o = Sim.Transient.run_discretized ~seed:1234L cfg ~bits in
  let observed = float_of_int o.Sim.Transient.slips /. float_of_int bits in
  Format.printf "analysis : %.4e slips/bit@." predicted;
  Format.printf "simulation: %.4e slips/bit (%d slips in %d bits)@." observed
    o.Sim.Transient.slips bits;
  let iv = Sim.Estimate.wilson ~errors:o.Sim.Transient.slips ~bits () in
  Format.printf "95%% interval: [%.4e, %.4e] %s@." iv.Sim.Estimate.lower iv.Sim.Estimate.upper
    (if predicted >= iv.Sim.Estimate.lower && predicted <= iv.Sim.Estimate.upper then
       "-- analysis inside"
     else "-- analysis OUTSIDE (investigate!)")
