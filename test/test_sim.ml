(* Tests for the Monte-Carlo baseline: estimator mathematics, simulator
   determinism, and cross-validation of simulated error/slip rates against
   the Markov-chain analysis (the key "analysis = simulation" evidence). *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let noisy =
  (* a high-BER configuration so Monte Carlo can actually observe errors *)
  {
    Cdr.Config.default with
    Cdr.Config.grid_points = 32;
    n_phases = 8;
    counter_length = 3;
    max_run = 4;
    nw_max_atoms = 33;
    sigma_w = 0.22;
  }

(* ---------- Estimate ---------- *)

let test_point_estimate () =
  check_float "p" 0.25 (Sim.Estimate.point_estimate ~errors:25 ~bits:100);
  Alcotest.check_raises "bad bits" (Invalid_argument "Estimate: bits must be positive") (fun () ->
      ignore (Sim.Estimate.point_estimate ~errors:0 ~bits:0))

let test_wilson_contains_truth () =
  (* simulate a binomial with p = 0.3 and check coverage on one draw *)
  let iv = Sim.Estimate.wilson ~errors:30 ~bits:100 () in
  Alcotest.(check bool) "contains p-hat" true (iv.Sim.Estimate.lower < 0.3 && iv.Sim.Estimate.upper > 0.3);
  (* zero errors: lower bound 0, upper bound positive *)
  let iv0 = Sim.Estimate.wilson ~errors:0 ~bits:1000 () in
  check_float "lower 0" 0.0 iv0.Sim.Estimate.lower;
  Alcotest.(check bool) "upper positive but small" true
    (iv0.Sim.Estimate.upper > 0.0 && iv0.Sim.Estimate.upper < 0.01)

let test_required_bits_infeasibility () =
  (* the paper's argument: resolving 1e-14 takes ~4e16 bits *)
  let n = Sim.Estimate.required_bits ~ber:1e-14 () in
  Alcotest.(check bool) "astronomical" true (n > 1e16 && n < 1e17);
  (* and 1e-2 is easy *)
  Alcotest.(check bool) "easy case" true (Sim.Estimate.required_bits ~ber:1e-2 () < 1e6)

let test_observed_vs_expected () =
  check_float ~eps:1e-12 "exact" 0.0 (Sim.Estimate.observed_vs_expected ~errors:10 ~bits:100 ~ber:0.1);
  Alcotest.(check bool) "off by a lot" true
    (Sim.Estimate.observed_vs_expected ~errors:100 ~bits:100 ~ber:0.1 > 10.0)

(* ---------- Transient ---------- *)

let test_simulator_deterministic () =
  let a = Sim.Transient.run ~seed:5L noisy ~bits:5000 in
  let b = Sim.Transient.run ~seed:5L noisy ~bits:5000 in
  Alcotest.(check int) "same errors" a.Sim.Transient.errors b.Sim.Transient.errors;
  Alcotest.(check int) "same slips" a.Sim.Transient.slips b.Sim.Transient.slips;
  Alcotest.(check int) "same endpoint" a.Sim.Transient.final_phase_bin b.Sim.Transient.final_phase_bin;
  let c = Sim.Transient.run ~seed:6L noisy ~bits:5000 in
  Alcotest.(check bool) "different seed differs" true
    (c.Sim.Transient.errors <> a.Sim.Transient.errors
    || c.Sim.Transient.final_phase_bin <> a.Sim.Transient.final_phase_bin)

let test_trajectory_shape () =
  let tr = Sim.Transient.trajectory ~seed:1L noisy ~bits:2000 in
  Alcotest.(check int) "length" 2000 (Array.length tr);
  Array.iter
    (fun bin ->
      Alcotest.(check bool) "bin in range" true (bin >= 0 && bin < noisy.Cdr.Config.grid_points))
    tr

let test_transition_count_plausible () =
  let o = Sim.Transient.run ~seed:2L noisy ~bits:100_000 in
  let expected = Cdr.Data_source.transition_probability noisy *. 100_000.0 in
  Alcotest.(check bool) "transition rate" true
    (abs_float (float_of_int o.Sim.Transient.transitions -. expected) < 0.03 *. expected)

let test_mc_matches_chain_ber () =
  (* the discretized-noise simulator is an unbiased estimator of the chain's
     per-bit error probability: compare through a z-score *)
  let model = Cdr.Model.build_direct noisy in
  let sol = Cdr.Model.solve model in
  let rho = Cdr.Model.phase_marginal model ~pi:sol.Markov.Solution.pi in
  (* discretized-noise tail: exactly what run_discretized estimates *)
  let predicted = Cdr.Ber.of_convolution noisy ~rho in
  let bits = 400_000 in
  let o = Sim.Transient.run_discretized ~seed:7L noisy ~bits in
  let z = Sim.Estimate.observed_vs_expected ~errors:o.Sim.Transient.errors ~bits ~ber:predicted in
  Alcotest.(check bool)
    (Printf.sprintf "z-score %.2f acceptable (predicted %.3e, observed %d/%d)" z predicted
       o.Sim.Transient.errors bits)
    true (z < 4.0)

let test_mc_continuous_close_to_chain () =
  (* the continuous-noise simulator should agree with the analytic-tail BER
     to within Monte-Carlo error as well (the discretization is fine) *)
  let model = Cdr.Model.build_direct noisy in
  let sol = Cdr.Model.solve model in
  let rho = Cdr.Model.phase_marginal model ~pi:sol.Markov.Solution.pi in
  let predicted = Cdr.Ber.of_marginal noisy ~rho in
  let bits = 400_000 in
  let o = Sim.Transient.run ~seed:8L noisy ~bits in
  let z = Sim.Estimate.observed_vs_expected ~errors:o.Sim.Transient.errors ~bits ~ber:predicted in
  Alcotest.(check bool)
    (Printf.sprintf "z-score %.2f acceptable (predicted %.3e, observed %d/%d)" z predicted
       o.Sim.Transient.errors bits)
    true (z < 5.0)

let test_mc_slip_rate_matches_chain () =
  let cfg =
    { noisy with Cdr.Config.nr = Prob.Jitter.drift ~max_steps:2 ~mean_steps:0.6 () }
  in
  let model = Cdr.Model.build_direct cfg in
  let sol = Cdr.Model.solve model in
  let predicted = Cdr.Cycle_slip.rate model ~pi:sol.Markov.Solution.pi in
  let bits = 200_000 in
  let o = Sim.Transient.run_discretized ~seed:9L cfg ~bits in
  let z = Sim.Estimate.observed_vs_expected ~errors:o.Sim.Transient.slips ~bits ~ber:predicted in
  Alcotest.(check bool)
    (Printf.sprintf "slip z-score %.2f (predicted rate %.3e, observed %d/%d)" z predicted
       o.Sim.Transient.slips bits)
    true (z < 5.0)

let test_histogram_matches_stationary () =
  (* the whole modeling chain end-to-end: the simulated phase occupancy
     converges to the analytic stationary phase marginal *)
  let model = Cdr.Model.build_direct noisy in
  let sol = Cdr.Model.solve model in
  let rho = Cdr.Model.phase_marginal model ~pi:sol.Markov.Solution.pi in
  let bits = 300_000 in
  let counts = Array.make noisy.Cdr.Config.grid_points 0 in
  Array.iter
    (fun bin -> counts.(bin) <- counts.(bin) + 1)
    (Sim.Transient.trajectory ~noise_model:`Discretized ~seed:33L noisy ~bits);
  let pmf = Array.map (fun c -> float_of_int c /. float_of_int bits) counts in
  let tv = 0.5 *. Linalg.Vec.dist_l1 pmf rho in
  Alcotest.(check bool) (Printf.sprintf "TV = %.4f small" tv) true (tv < 0.02)

(* ---------- properties ---------- *)

let prop_wilson_brackets_point =
  let gen =
    let open QCheck2.Gen in
    let* bits = int_range 10 10_000 in
    let* errors = int_range 0 bits in
    return (errors, bits)
  in
  QCheck2.Test.make ~name:"wilson interval brackets the point estimate" ~count:200 gen
    (fun (errors, bits) ->
      let p = Sim.Estimate.point_estimate ~errors ~bits in
      let iv = Sim.Estimate.wilson ~errors ~bits () in
      iv.Sim.Estimate.lower <= p +. 1e-12
      && p <= iv.Sim.Estimate.upper +. 1e-12
      && iv.Sim.Estimate.lower >= 0.0
      && iv.Sim.Estimate.upper <= 1.0)

let prop_required_bits_monotone =
  let gen = QCheck2.Gen.(pair (float_range 1e-12 0.15) (float_range 1.01 5.0)) in
  QCheck2.Test.make ~name:"required_bits decreasing in ber" ~count:200 gen (fun (ber, factor) ->
      Sim.Estimate.required_bits ~ber () > Sim.Estimate.required_bits ~ber:(ber *. factor) ())

let () =
  Alcotest.run "sim"
    [
      ( "estimate",
        [
          Alcotest.test_case "point estimate" `Quick test_point_estimate;
          Alcotest.test_case "wilson" `Quick test_wilson_contains_truth;
          Alcotest.test_case "required bits" `Quick test_required_bits_infeasibility;
          Alcotest.test_case "observed vs expected" `Quick test_observed_vs_expected;
        ] );
      ( "transient",
        [
          Alcotest.test_case "deterministic" `Quick test_simulator_deterministic;
          Alcotest.test_case "trajectory" `Quick test_trajectory_shape;
          Alcotest.test_case "transition count" `Slow test_transition_count_plausible;
          Alcotest.test_case "mc matches chain ber (discretized)" `Slow test_mc_matches_chain_ber;
          Alcotest.test_case "mc close to chain ber (continuous)" `Slow test_mc_continuous_close_to_chain;
          Alcotest.test_case "mc slip rate matches chain" `Slow test_mc_slip_rate_matches_chain;
        ] );
      ( "histogram",
        [ Alcotest.test_case "matches stationary marginal" `Slow test_histogram_matches_stationary ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_wilson_brackets_point; prop_required_bits_monotone ] );
    ]
