(* Tests for the CDR core library: configuration validation, the four FSM
   components, agreement of the two chain-construction paths, BER evaluation,
   the structured multigrid hierarchy, and cycle-slip measures. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* Small, fast configuration used across tests. *)
let small =
  {
    Cdr.Config.default with
    Cdr.Config.grid_points = 32;
    n_phases = 8;
    counter_length = 3;
    max_run = 4;
    nw_max_atoms = 17;
    sigma_w = 0.08;
  }

(* ---------- Config ---------- *)

let test_config_default_valid () =
  match Cdr.Config.validate Cdr.Config.default with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_config_rejections () =
  let bad_cases =
    [
      ("odd grid", { small with Cdr.Config.grid_points = 33 });
      ("phase granularity", { small with Cdr.Config.grid_points = 30; n_phases = 8 });
      ("counter", { small with Cdr.Config.counter_length = 0 });
      ("sigma", { small with Cdr.Config.sigma_w = -0.1 });
      ("max_run", { small with Cdr.Config.max_run = 0 });
      ("p01", { small with Cdr.Config.p01 = 0.0 });
      ("nr too wide", { small with Cdr.Config.nr = Prob.Pmf.point 20 });
    ]
  in
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check bool) name true (Result.is_error (Cdr.Config.validate cfg)))
    bad_cases

let test_config_geometry () =
  check_float "delta" (1.0 /. 32.0) (Cdr.Config.delta small);
  Alcotest.(check int) "g_steps" 4 (Cdr.Config.g_steps small);
  check_float "phase of bin 16" 0.0 (Cdr.Config.phase_of_bin small 16);
  check_float "phase of bin 0" (-0.5) (Cdr.Config.phase_of_bin small 0);
  Alcotest.(check int) "bin of 0" 16 (Cdr.Config.bin_of_phase small 0.0);
  Alcotest.(check int) "roundtrip" 5 (Cdr.Config.bin_of_phase small (Cdr.Config.phase_of_bin small 5))

let test_config_nw_pmf_capped () =
  let pmf, scale = Cdr.Config.nw_pmf small in
  Alcotest.(check bool) "atom cap respected" true (Prob.Pmf.cardinal pmf <= small.Cdr.Config.nw_max_atoms);
  Alcotest.(check bool) "scale positive" true (scale >= 1);
  (* zero-sigma degenerates to a point mass *)
  let p0, _ = Cdr.Config.nw_pmf { small with Cdr.Config.sigma_w = 0.0 } in
  check_float "point" 1.0 (Prob.Pmf.prob p0 0)

(* ---------- Data source ---------- *)

let test_data_source_encode_roundtrip () =
  for bit = 0 to 1 do
    for run = 1 to small.Cdr.Config.max_run do
      let code = Cdr.Data_source.encode small { Cdr.Data_source.bit; run } in
      let back = Cdr.Data_source.decode small code in
      Alcotest.(check int) "bit" bit back.Cdr.Data_source.bit;
      Alcotest.(check int) "run" run back.Cdr.Data_source.run
    done
  done

let test_data_source_forced_transition () =
  let comp = Cdr.Data_source.component small in
  let at_limit = Cdr.Data_source.encode small { Cdr.Data_source.bit = 0; run = small.Cdr.Config.max_run } in
  (* even with both coins saying "no flip" the transition is forced *)
  let next, out = comp.Fsm.Component.step at_limit [| 0; 0 |] in
  Alcotest.(check int) "transition emitted" Cdr.Data_source.output_transition out;
  let s = Cdr.Data_source.decode small next in
  Alcotest.(check int) "bit flipped" 1 s.Cdr.Data_source.bit;
  Alcotest.(check int) "run reset" 1 s.Cdr.Data_source.run

let test_data_source_transition_probability () =
  (* with p01 = p10 = p and a generous run limit, transition probability is
     close to p but slightly above because of forced transitions *)
  let cfg = { small with Cdr.Config.p01 = 0.5; p10 = 0.5; max_run = 12 } in
  let pt = Cdr.Data_source.transition_probability cfg in
  Alcotest.(check bool) "close to p" true (abs_float (pt -. 0.5) < 0.01);
  Alcotest.(check bool) "at least p" true (pt >= 0.5);
  (* max_run = 1 means a transition every bit *)
  let always = Cdr.Data_source.transition_probability { cfg with Cdr.Config.max_run = 1 } in
  check_float ~eps:1e-12 "forced every bit" 1.0 always

(* ---------- Phase detector ---------- *)

let test_detector_decisions () =
  Alcotest.(check bool) "no transition -> Null" true
    (Cdr.Phase_detector.decide ~phase_bins:5 ~nw_bins:0 false = Cdr.Phase_detector.Null);
  Alcotest.(check bool) "positive -> Lead" true
    (Cdr.Phase_detector.decide ~phase_bins:1 ~nw_bins:0 true = Cdr.Phase_detector.Lead);
  Alcotest.(check bool) "negative -> Lag" true
    (Cdr.Phase_detector.decide ~phase_bins:(-3) ~nw_bins:2 true = Cdr.Phase_detector.Lag);
  Alcotest.(check bool) "tie -> Null (sgn 0)" true
    (Cdr.Phase_detector.decide ~phase_bins:(-2) ~nw_bins:2 true = Cdr.Phase_detector.Null)

let test_detector_lead_probability_matches_gaussian () =
  (* the discretized decision probability brackets Q(-phi/sigma): the only
     mismatch is the tie atom at exactly 0 (which goes to Null, the sign
     function's zero), whose mass is at most one lattice cell *)
  let cfg = { small with Cdr.Config.nw_max_atoms = 201; grid_points = 64; n_phases = 8 } in
  let m = cfg.Cdr.Config.grid_points in
  let nw, scale = Cdr.Config.nw_pmf cfg in
  let cell_mass =
    Prob.Pmf.fold nw ~init:0.0 ~f:(fun acc _ w -> Float.max acc w)
  in
  ignore scale;
  List.iter
    (fun bin ->
      let phi = Cdr.Config.phase_of_bin cfg bin in
      let analytic = 1.0 -. Prob.Gaussian.cdf ~mean:0.0 ~sigma:cfg.Cdr.Config.sigma_w (-.phi) in
      let discrete = Cdr.Phase_detector.lead_probability cfg ~phase_bin:bin in
      Alcotest.(check bool)
        (Printf.sprintf "bin %d" bin)
        true
        (analytic >= discrete -. 0.02 && analytic <= discrete +. cell_mass +. 0.02))
    [ m / 2; (m / 2) + 2; (m / 2) - 3; (m / 2) + 6 ]

let test_detector_dead_zone () =
  Alcotest.(check bool) "inside dead zone -> Null" true
    (Cdr.Phase_detector.decide ~dead_zone:3 ~phase_bins:2 ~nw_bins:0 true = Cdr.Phase_detector.Null);
  Alcotest.(check bool) "beyond dead zone -> Lead" true
    (Cdr.Phase_detector.decide ~dead_zone:3 ~phase_bins:4 ~nw_bins:0 true = Cdr.Phase_detector.Lead);
  (* a dead zone strictly reduces the lead probability at every phase *)
  let with_dz = { small with Cdr.Config.detector_dead_zone = 2 } in
  for bin = 0 to small.Cdr.Config.grid_points - 1 do
    Alcotest.(check bool) "lead prob shrinks" true
      (Cdr.Phase_detector.lead_probability with_dz ~phase_bin:bin
      <= Cdr.Phase_detector.lead_probability small ~phase_bin:bin +. 1e-15)
  done

let test_dead_zone_model_consistent () =
  (* the dead-zone variant still composes into a valid chain and both
     construction paths agree *)
  let cfg = { small with Cdr.Config.detector_dead_zone = 2 } in
  let direct = Cdr.Model.build_direct cfg in
  let sums = Sparse.Csr.row_sums (Markov.Chain.tpm direct.Cdr.Model.chain) in
  Array.iter (fun s -> check_float ~eps:1e-12 "stochastic" 1.0 s) sums

let test_detector_lead_monotone_in_phase () =
  let m = small.Cdr.Config.grid_points in
  let prev = ref (-1.0) in
  for bin = 0 to m - 1 do
    let p = Cdr.Phase_detector.lead_probability small ~phase_bin:bin in
    Alcotest.(check bool) "monotone" true (p >= !prev -. 1e-12);
    prev := p
  done

(* ---------- Counter ---------- *)

let test_counter_overflow_behaviour () =
  let comp = Cdr.Counter.component small in
  let lead = Cdr.Phase_detector.output_to_int Cdr.Phase_detector.Lead in
  let lag = Cdr.Phase_detector.output_to_int Cdr.Phase_detector.Lag in
  let null = Cdr.Phase_detector.output_to_int Cdr.Phase_detector.Null in
  (* k = 3: from count 2, LEAD overflows to RETARD and resets *)
  let s, out = comp.Fsm.Component.step (Cdr.Counter.encode small 2) [| lead |] in
  Alcotest.(check int) "reset" 0 (Cdr.Counter.decode small s);
  Alcotest.(check bool) "retard" true (Cdr.Counter.command_of_int out = Cdr.Counter.Retard);
  let s, out = comp.Fsm.Component.step (Cdr.Counter.encode small (-2)) [| lag |] in
  Alcotest.(check int) "reset" 0 (Cdr.Counter.decode small s);
  Alcotest.(check bool) "advance" true (Cdr.Counter.command_of_int out = Cdr.Counter.Advance);
  let s, out = comp.Fsm.Component.step (Cdr.Counter.encode small 1) [| null |] in
  Alcotest.(check int) "hold state" 1 (Cdr.Counter.decode small s);
  Alcotest.(check bool) "hold" true (Cdr.Counter.command_of_int out = Cdr.Counter.Hold)

(* ---------- Phase error ---------- *)

let test_phase_wrap_and_crossing () =
  Alcotest.(check int) "wrap negative" 31 (Cdr.Phase_error.wrap small (-1));
  Alcotest.(check int) "wrap over" 0 (Cdr.Phase_error.wrap small 32);
  Alcotest.(check bool) "crossing detected" true
    (Cdr.Phase_error.crosses_boundary small ~src:31 ~dst:0);
  Alcotest.(check bool) "normal move" false (Cdr.Phase_error.crosses_boundary small ~src:10 ~dst:14)

let test_phase_update_directions () =
  let bin = 16 in
  Alcotest.(check int) "advance = +G" (16 + 4)
    (Cdr.Phase_error.next_bin small ~bin ~command:Cdr.Counter.Advance ~nr_bins:0);
  Alcotest.(check int) "retard = -G" (16 - 4)
    (Cdr.Phase_error.next_bin small ~bin ~command:Cdr.Counter.Retard ~nr_bins:0);
  Alcotest.(check int) "drift" 17
    (Cdr.Phase_error.next_bin small ~bin ~command:Cdr.Counter.Hold ~nr_bins:1)

(* ---------- Model: the two construction paths agree ---------- *)

let models_equal a b =
  let n = a.Cdr.Model.n_states in
  n = b.Cdr.Model.n_states
  &&
  let ok = ref true in
  for i = 0 to n - 1 do
    let key_i =
      (a.Cdr.Model.data_code i, a.Cdr.Model.counter_code i, a.Cdr.Model.phase_bin i)
    in
    let d, c, p = key_i in
    match b.Cdr.Model.index_of ~data:d ~counter:c ~phase:p with
    | None -> ok := false
    | Some i' ->
        Sparse.Csr.iter_row (Markov.Chain.tpm a.Cdr.Model.chain) i (fun j v ->
            let dj = a.Cdr.Model.data_code j
            and cj = a.Cdr.Model.counter_code j
            and pj = a.Cdr.Model.phase_bin j in
            match b.Cdr.Model.index_of ~data:dj ~counter:cj ~phase:pj with
            | None -> ok := false
            | Some j' ->
                if abs_float (v -. Markov.Chain.transition_prob b.Cdr.Model.chain i' j') > 1e-12
                then ok := false)
  done;
  !ok

let test_direct_equals_network () =
  let direct = Cdr.Model.build_direct small in
  let vianet = Cdr.Model.build_via_network small in
  Alcotest.(check bool) "same chain" true (models_equal direct vianet)

let test_model_chain_is_irreducible () =
  let model = Cdr.Model.build_direct small in
  Alcotest.(check bool) "irreducible" true (Markov.Chain.is_irreducible model.Cdr.Model.chain)

let test_model_state_count () =
  let model = Cdr.Model.build_direct small in
  (* full product: 2*max_run * (2K-1) * m *)
  Alcotest.(check int) "full product reachable" (2 * 4 * 5 * 32) model.Cdr.Model.n_states

(* ---------- hierarchy ---------- *)

let test_hierarchy_well_formed () =
  let model = Cdr.Model.build_direct small in
  let h = Cdr.Model.hierarchy model in
  (* sizes chain up and strictly shrink *)
  let rec walk n = function
    | [] -> n
    | (p : Markov.Partition.t) :: rest ->
        Alcotest.(check int) "level size matches" n p.Markov.Partition.n_fine;
        Alcotest.(check bool) "shrinks" true (p.Markov.Partition.n_coarse < n);
        walk p.Markov.Partition.n_coarse rest
  in
  let final = walk model.Cdr.Model.n_states h in
  Alcotest.(check bool) "ends small enough for direct solve" true
    (final <= Markov.Gth.max_direct_size)

let test_hierarchy_lumps_only_phase () =
  (* fine states in the same first-level block share data and counter codes *)
  let model = Cdr.Model.build_direct small in
  match Cdr.Model.hierarchy model with
  | [] -> Alcotest.fail "expected at least one level"
  | p :: _ ->
      let ptr, members = Markov.Partition.members p in
      for b = 0 to p.Markov.Partition.n_coarse - 1 do
        if ptr.(b + 1) = ptr.(b) then Alcotest.fail "empty block";
        let first = members.(ptr.(b)) in
        for idx = ptr.(b) + 1 to ptr.(b + 1) - 1 do
          let i = members.(idx) in
          Alcotest.(check int) "same data" (model.Cdr.Model.data_code first)
            (model.Cdr.Model.data_code i);
          Alcotest.(check int) "same counter" (model.Cdr.Model.counter_code first)
            (model.Cdr.Model.counter_code i);
          Alcotest.(check int) "adjacent phase" (model.Cdr.Model.phase_bin first / 2)
            (model.Cdr.Model.phase_bin i / 2)
        done
      done

(* ---------- solve & BER ---------- *)

let test_solvers_agree_on_model () =
  let model = Cdr.Model.build_direct small in
  let ctx = Cdr.Context.make ~tol:1e-12 () in
  let mg = Cdr.Model.solve ~ctx model in
  let power = Cdr.Model.solve ~solver:`Power ~ctx model in
  let gs = Cdr.Model.solve ~solver:`Gauss_seidel ~ctx model in
  Alcotest.(check bool) "mg converged" true mg.Markov.Solution.converged;
  Alcotest.(check bool) "mg-power" true
    (Linalg.Vec.dist_l1 mg.Markov.Solution.pi power.Markov.Solution.pi < 1e-8);
  Alcotest.(check bool) "mg-gs" true
    (Linalg.Vec.dist_l1 mg.Markov.Solution.pi gs.Markov.Solution.pi < 1e-8)

let test_phase_marginal_sums_to_one () =
  let model = Cdr.Model.build_direct small in
  let sol = Cdr.Model.solve model in
  let rho = Cdr.Model.phase_marginal model ~pi:sol.Markov.Solution.pi in
  check_float ~eps:1e-9 "mass" 1.0 (Linalg.Vec.sum rho);
  Alcotest.(check int) "length" small.Cdr.Config.grid_points (Array.length rho)

let test_ber_tail_probability () =
  (* phase at the eye edge: tail = half; phase at center: tiny *)
  let cfg = { small with Cdr.Config.sigma_w = 0.05 } in
  check_float ~eps:1e-6 "center"
    (2.0 *. Prob.Gaussian.q (0.5 /. 0.05))
    (Cdr.Ber.tail_probability cfg ~phase:0.0);
  Alcotest.(check bool) "edge ~ 1/2" true
    (abs_float (Cdr.Ber.tail_probability cfg ~phase:0.5 -. 0.5) < 1e-6);
  (* sigma = 0: no error strictly inside the eye *)
  check_float "deterministic inside" 0.0
    (Cdr.Ber.tail_probability { cfg with Cdr.Config.sigma_w = 0.0 } ~phase:0.49)

let test_ber_marginal_vs_convolution () =
  (* with a fine n_w discretization both estimates agree in the regime where
     the convolution can resolve the tail *)
  let cfg = { small with Cdr.Config.sigma_w = 0.2; nw_max_atoms = 201 } in
  let model = Cdr.Model.build_direct cfg in
  let result, _ = Cdr.Ber.analyze model in
  let conv = Cdr.Ber.of_convolution cfg ~rho:result.Cdr.Ber.phase_density in
  Alcotest.(check bool) "same order of magnitude" true
    (conv > 0.0
    && abs_float (log10 conv -. log10 result.Cdr.Ber.ber) < 0.3)

let test_ber_increases_with_sigma () =
  let ber_at sigma =
    let cfg = { small with Cdr.Config.sigma_w = sigma } in
    let model = Cdr.Model.build_direct cfg in
    let result, _ = Cdr.Ber.analyze model in
    result.Cdr.Ber.ber
  in
  let b1 = ber_at 0.05 and b2 = ber_at 0.1 and b3 = ber_at 0.2 in
  Alcotest.(check bool) "monotone" true (b1 < b2 && b2 < b3);
  Alcotest.(check bool) "orders of magnitude" true (b3 /. b1 > 1e3)

let test_eye_density_mass () =
  let model = Cdr.Model.build_direct small in
  let result, _ = Cdr.Ber.analyze model in
  let mass = Array.fold_left (fun acc (_, p) -> acc +. p) 0.0 result.Cdr.Ber.eye_density in
  check_float ~eps:1e-9 "eye density mass" 1.0 mass

(* ---------- cycle slips ---------- *)

(* The first-passage reference: every boundary crossing redirected to a
   fresh absorbing state, then the accelerated Gauss-Seidel hitting time
   from lock. Only usable where slips are frequent. *)
let passage_first_slip model =
  let chain = model.Cdr.Model.chain in
  let n = Markov.Chain.n_states chain in
  let absorbing = n in
  let acc = Sparse.Coo.create ~rows:(n + 1) ~cols:(n + 1) in
  Sparse.Csr.iter (Markov.Chain.tpm chain) (fun i j v ->
      if
        Cdr.Phase_error.crosses_boundary model.Cdr.Model.config
          ~src:(model.Cdr.Model.phase_bin i) ~dst:(model.Cdr.Model.phase_bin j)
      then Sparse.Coo.add acc ~row:i ~col:absorbing v
      else Sparse.Coo.add acc ~row:i ~col:j v);
  Sparse.Coo.add acc ~row:absorbing ~col:absorbing 1.0;
  let absorbed = Markov.Chain.of_csr (Sparse.Coo.to_csr acc) in
  let times = Markov.Passage.mean_hitting_times absorbed ~target:(fun s -> s = absorbing) in
  let d0, c0, p0 = Cdr.Model.initial_state model.Cdr.Model.config in
  times.(Option.get (model.Cdr.Model.index_of ~data:d0 ~counter:c0 ~phase:p0))

let check_rel ~tol msg expected actual =
  let rel = Float.abs (actual -. expected) /. Float.abs expected in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.6e vs %.6e (rel %.1e)" msg actual expected rel)
    true (rel <= tol)

let test_cycle_slip_measures () =
  (* crank the drift so slips happen often enough to measure *)
  let cfg =
    {
      small with
      Cdr.Config.sigma_w = 0.15;
      nr = Prob.Jitter.drift ~max_steps:2 ~mean_steps:0.6 ();
    }
  in
  let model = Cdr.Model.build_direct cfg in
  let sol = Cdr.Model.solve model in
  let rate = Cdr.Cycle_slip.rate model ~pi:sol.Markov.Solution.pi in
  Alcotest.(check bool) "positive rate" true (rate > 0.0);
  (* the operator-based flux visits the entries in the CSR fold's order *)
  let fold =
    Sparse.Csr.fold (Markov.Chain.tpm model.Cdr.Model.chain) ~init:0.0 ~f:(fun acc i j v ->
        if
          Cdr.Phase_error.crosses_boundary model.Cdr.Model.config
            ~src:(model.Cdr.Model.phase_bin i) ~dst:(model.Cdr.Model.phase_bin j)
        then acc +. (sol.Markov.Solution.pi.(i) *. v)
        else acc)
  in
  Alcotest.(check bool) "flux bitwise equals the CSR fold" true
    (Int64.bits_of_float rate = Int64.bits_of_float fold);
  let mtbf = Cdr.Cycle_slip.mean_time_between model ~pi:sol.Markov.Solution.pi in
  check_float ~eps:1e-6 "mtbf = 1/rate" (1.0 /. rate) mtbf;
  (* slips every ~260 bits: the restart chain's first slip is the
     first-passage answer, and a from-lock quantity distinct from the
     stationary 1/rate (~276 bits here) *)
  let first = Cdr.Cycle_slip.mean_first_slip_time model in
  check_rel ~tol:1e-6 "first slip = passage" (passage_first_slip model) first;
  Alcotest.(check bool) "from lock, not steady state" true
    (Float.abs (first -. mtbf) /. mtbf > 1e-2)

(* Config.default narrowed to a small loop: slips every ~6.4e5 bits, still
   frequent enough for the first-passage iteration to converge *)
let test_first_slip_matches_passage () =
  let cfg =
    {
      Cdr.Config.default with
      Cdr.Config.grid_points = 32;
      n_phases = 8;
      counter_length = 2;
      sigma_w = 0.25;
    }
  in
  let model = Cdr.Model.build cfg in
  let first = Cdr.Cycle_slip.mean_first_slip_time model in
  check_rel ~tol:1e-6 "restart = passage" (passage_first_slip model) first;
  check_rel ~tol:1e-4 "known value" 6.4330e5 first

(* rare slips, with the service's default drift (mean 0.1 bins/bit): where
   the first-passage iteration stopped low by up to 4e7x, the restart chain
   meets the stationary 1/flux, which a rare slip from lock must approach *)
let test_first_slip_rare_meets_flux () =
  List.iter
    (fun (grid, phases, counter, sigma_w) ->
      let cfg =
        {
          Cdr.Config.default with
          Cdr.Config.grid_points = grid;
          n_phases = phases;
          counter_length = counter;
          sigma_w;
          nr = Prob.Jitter.drift ~max_steps:2 ~mean_steps:0.1 ();
        }
      in
      let model = Cdr.Model.build cfg in
      let sol = Cdr.Model.solve model in
      let mtbf = Cdr.Cycle_slip.mean_time_between model ~pi:sol.Markov.Solution.pi in
      let first, restart = Cdr.Cycle_slip.first_slip model in
      Alcotest.(check bool) "restart solve converged" true restart.Markov.Solution.converged;
      check_rel ~tol:1e-3
        (Printf.sprintf "grid %d / %d phases / K %d / sigma_w %g" grid phases counter sigma_w)
        mtbf first)
    [ (32, 16, 4, 0.06); (64, 16, 3, 0.06); (32, 8, 3, 0.0707) ]

let test_first_slip_cancel () =
  let model = Cdr.Model.build small in
  let ctx = Cdr.Context.make ~cancel:(fun () -> true) () in
  Alcotest.check_raises "cancel aborts the restart solve" Markov.Multigrid.Cancelled (fun () ->
      ignore (Cdr.Cycle_slip.first_slip ~ctx model))

let test_slip_rate_increases_with_drift () =
  let rate_for mean_steps =
    let cfg =
      { small with Cdr.Config.nr = Prob.Jitter.drift ~max_steps:2 ~mean_steps () }
    in
    let model = Cdr.Model.build_direct cfg in
    let sol = Cdr.Model.solve model in
    Cdr.Cycle_slip.rate model ~pi:sol.Markov.Solution.pi
  in
  Alcotest.(check bool) "monotone in drift" true (rate_for 0.6 > rate_for 0.3)

(* ---------- clock jitter & acquisition ---------- *)

let test_clock_jitter_statistics () =
  let model = Cdr.Model.build_direct small in
  let sol = Cdr.Model.solve model in
  let jitter = Cdr.Clock_jitter.analyze ~lags:16 model ~pi:sol.Markov.Solution.pi in
  Alcotest.(check bool) "rms positive" true (jitter.Cdr.Clock_jitter.rms_ui > 0.0);
  Alcotest.(check bool) "rms below peak-to-peak" true
    (jitter.Cdr.Clock_jitter.rms_ui < jitter.Cdr.Clock_jitter.peak_to_peak_ui);
  check_float ~eps:1e-9 "autocorrelation starts at 1" 1.0
    jitter.Cdr.Clock_jitter.autocorrelation.(0);
  Alcotest.(check int) "lags" 17 (Array.length jitter.Cdr.Clock_jitter.autocorrelation)

let test_clock_jitter_grows_with_sigma () =
  let rms_at sigma =
    let cfg = { small with Cdr.Config.sigma_w = sigma } in
    let model = Cdr.Model.build_direct cfg in
    let sol = Cdr.Model.solve model in
    (Cdr.Clock_jitter.analyze ~lags:4 model ~pi:sol.Markov.Solution.pi).Cdr.Clock_jitter.rms_ui
  in
  Alcotest.(check bool) "monotone" true (rms_at 0.05 < rms_at 0.2)

let test_jitter_spectrum () =
  let model = Cdr.Model.build_direct small in
  let sol = Cdr.Model.solve model in
  let pi = sol.Markov.Solution.pi in
  let lags = 64 in
  let psd = Cdr.Clock_jitter.spectrum ~lags model ~pi in
  (* frequencies run 0 .. 1/2 *)
  let f0, _ = psd.(0) and fend, _ = psd.(Array.length psd - 1) in
  check_float "dc" 0.0 f0;
  check_float "nyquist" 0.5 fend;
  (* the mean of the two-sided spectrum is exactly the autocovariance at lag
     0, i.e. the stationary phase variance (inverse DFT at 0, taper(0) = 1) *)
  let n = 2 * (Array.length psd - 1) in
  let two_sided_sum =
    snd psd.(0) +. snd psd.(Array.length psd - 1)
    +. (2.0
       *. Array.fold_left ( +. ) 0.0
            (Array.init (Array.length psd - 2) (fun k -> snd psd.(k + 1))))
  in
  let variance =
    Markov.Stat.variance ~pi ~f:(fun i ->
        Cdr.Config.phase_of_bin small (model.Cdr.Model.phase_bin i))
  in
  check_float ~eps:1e-10 "wiener-khinchin closure" variance (two_sided_sum /. float_of_int n);
  (* the loop is a low-pass system: jitter power concentrates at low
     frequency *)
  Alcotest.(check bool) "low-pass" true (snd psd.(1) > snd psd.(Array.length psd - 1))

let test_acquisition_times () =
  let model = Cdr.Model.build_direct small in
  let acq = Cdr.Acquisition.analyze model in
  Alcotest.(check bool) "worst positive" true (acq.Cdr.Acquisition.mean_from_worst_phase > 0.0);
  Alcotest.(check bool) "edge below worst" true
    (acq.Cdr.Acquisition.mean_from_half_ui <= acq.Cdr.Acquisition.mean_from_worst_phase +. 1e-9);
  (* phases already inside the band acquire in 0 *)
  let inside =
    Array.to_list acq.Cdr.Acquisition.per_phase_bin
    |> List.filter (fun (phi, _) -> abs_float phi <= acq.Cdr.Acquisition.lock_band_ui)
  in
  List.iter (fun (_, t) -> check_float ~eps:1e-9 "in band" 0.0 t) inside

let test_acquisition_band_validation () =
  let model = Cdr.Model.build_direct small in
  Alcotest.(check bool) "bad band" true
    (try ignore (Cdr.Acquisition.analyze ~lock_band_ui:0.6 model); false
     with Invalid_argument _ -> true)

(* ---------- cross-subsystem integration ---------- *)

let test_multigrid_random_block_chain () =
  (* the generic default hierarchy on an unstructured chain large enough to
     recurse: agreement with Gauss-Seidel to solver tolerance *)
  let n = 1200 in
  let rng = Prob.Rng.create ~seed:77L in
  let acc = Sparse.Coo.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    (* a ring backbone keeps it irreducible; a few random shortcuts make it
       unstructured *)
    Sparse.Coo.add acc ~row:i ~col:((i + 1) mod n) 0.5;
    Sparse.Coo.add acc ~row:i ~col:i 0.3;
    Sparse.Coo.add acc ~row:i ~col:(Prob.Rng.int rng ~bound:n) 0.2
  done;
  let chain = Markov.Chain.of_csr (Sparse.Coo.to_csr acc) in
  let hierarchy = Markov.Multigrid.default_hierarchy ~n ~coarsest:Markov.Gth.max_direct_size in
  let mg, stats = Markov.Multigrid.solve ~tol:1e-11 ~hierarchy chain in
  let gs = Markov.Splitting.solve ~tol:1e-12 chain in
  Alcotest.(check bool) "recursed" true (stats.Markov.Multigrid.levels >= 2);
  Alcotest.(check bool) "converged" true mg.Markov.Solution.converged;
  check_float ~eps:1e-8 "matches gauss-seidel" 0.0
    (Linalg.Vec.dist_l1 mg.Markov.Solution.pi gs.Markov.Solution.pi)

(* ---------- activity ---------- *)

(* activity needs the selector step to dominate n_r: use 4 phases (G = 8 bins) *)
let active = { small with Cdr.Config.n_phases = 4 }

let test_activity_metrics () =
  let model = Cdr.Model.build_direct active in
  let sol = Cdr.Model.solve model in
  let pi = sol.Markov.Solution.pi in
  let a = Cdr.Activity.analyze model ~pi in
  (* data transitions: p = 1/2 with forced transitions at run 4 -> slightly
     above 1/2, and it must match the exact standalone computation *)
  check_float ~eps:1e-9 "transition density"
    (Cdr.Data_source.transition_probability active)
    a.Cdr.Activity.data_transition_density;
  (* decisions happen only on transitions *)
  Alcotest.(check bool) "decisions below transitions" true
    (a.Cdr.Activity.detector_activity <= a.Cdr.Activity.data_transition_density +. 1e-12);
  (* the counter needs at least K same-direction decisions per correction *)
  Alcotest.(check bool) "corrections bounded by decisions / K" true
    (a.Cdr.Activity.correction_rate
    <= (a.Cdr.Activity.detector_activity /. float_of_int active.Cdr.Config.counter_length) +. 1e-9);
  Alcotest.(check bool) "corrections happen" true (a.Cdr.Activity.correction_rate > 0.0);
  check_float ~eps:1e-9 "mtbc inverse" (1.0 /. a.Cdr.Activity.correction_rate)
    a.Cdr.Activity.mean_bits_between_corrections

let test_activity_drift_balance () =
  (* exact stationarity identity on the torus: the mean signed phase motion
     per bit vanishes, i.e. G * (advance rate - retard rate) + E[n_r] = 0 up
     to the (negligible) wrap-around flux *)
  let model = Cdr.Model.build_direct active in
  let sol = Cdr.Model.solve ~ctx:(Cdr.Context.make ~tol:1e-12 ()) model in
  let pi = sol.Markov.Solution.pi in
  let cfg = active in
  let m = cfg.Cdr.Config.grid_points in
  let signed_move =
    Markov.Reward.transition_rate model.Cdr.Model.chain ~pi ~reward:(fun i j ->
        let d =
          ((model.Cdr.Model.phase_bin j - model.Cdr.Model.phase_bin i + (m / 2)) mod m + m) mod m
          - (m / 2)
        in
        float_of_int d)
  in
  check_float ~eps:1e-6 "zero net motion" 0.0 signed_move

let test_activity_guard () =
  (* n_r half as wide as the selector step: corrections are not identifiable *)
  let cfg = small in
  let model = Cdr.Model.build_direct cfg in
  let sol = Cdr.Model.solve model in
  Alcotest.(check bool) "guarded" true
    (try ignore (Cdr.Activity.analyze model ~pi:sol.Markov.Solution.pi); false
     with Invalid_argument _ -> true)

(* ---------- second-order (frequency-tracking) loop ---------- *)

let drifty =
  {
    small with
    Cdr.Config.nw_max_atoms = 17;
    sigma_w = 0.08;
    nr = Prob.Jitter.drift ~max_steps:2 ~mean_steps:0.8 ();
  }

let test_freq_track_stochastic () =
  let t = Cdr.Freq_track.build ~params:{ Cdr.Freq_track.max_f = 1; adapt_length = 3 } drifty in
  let sums = Sparse.Csr.row_sums (Markov.Chain.tpm t.Cdr.Freq_track.chain) in
  Array.iter (fun s -> check_float ~eps:1e-12 "stochastic" 1.0 s) sums;
  Alcotest.(check int) "state blow-up factor"
    (Cdr.Model.build_direct drifty).Cdr.Model.n_states
    (t.Cdr.Freq_track.n_states / (3 * 5))

let test_freq_register_cancels_drift () =
  let t = Cdr.Freq_track.build ~params:{ Cdr.Freq_track.max_f = 1; adapt_length = 3 } drifty in
  let sol = Cdr.Freq_track.solve ~tol:1e-8 t in
  let pi = sol.Markov.Solution.pi in
  (* the register spends most of its time at the drift-cancelling value *)
  let marg = Cdr.Freq_track.freq_marginal t ~pi in
  let p_plus_one = snd (Array.get marg 2) in
  Alcotest.(check bool) "register locks near +1" true (p_plus_one > 0.5);
  (* and beats the first-order loop on both metrics *)
  let first = Cdr.Model.build_direct drifty in
  let sol1 = Cdr.Model.solve first in
  let rho1 = Cdr.Model.phase_marginal first ~pi:sol1.Markov.Solution.pi in
  let ber1 = Cdr.Ber.of_marginal drifty ~rho:rho1 in
  let slip1 = Cdr.Cycle_slip.rate first ~pi:sol1.Markov.Solution.pi in
  Alcotest.(check bool) "lower BER" true (Cdr.Freq_track.ber t ~pi < ber1);
  Alcotest.(check bool) "fewer slips" true (Cdr.Freq_track.slip_rate t ~pi < slip1)

let test_freq_track_idle_without_drift () =
  (* with a zero-mean symmetric environment the register stays centered
     (a small symmetric wander keeps the chain irreducible) *)
  let quiet =
    { drifty with Cdr.Config.nr = Prob.Jitter.symmetric_wander ~max_steps:1 ~rms_steps:0.4 }
  in
  let t = Cdr.Freq_track.build ~params:{ Cdr.Freq_track.max_f = 1; adapt_length = 3 } quiet in
  let sol = Cdr.Freq_track.solve ~tol:1e-8 t in
  let marg = Cdr.Freq_track.freq_marginal t ~pi:sol.Markov.Solution.pi in
  let p_zero = snd (Array.get marg 1) in
  Alcotest.(check bool) "register mostly centered" true (p_zero > 0.4);
  (* symmetric noise: +1 and -1 occupancy balance *)
  let p_minus = snd (Array.get marg 0) and p_plus = snd (Array.get marg 2) in
  Alcotest.(check bool) "symmetric occupancy" true (abs_float (p_plus -. p_minus) < 0.05)

let test_freq_track_validation () =
  Alcotest.(check bool) "bad adapt" true
    (try
       ignore (Cdr.Freq_track.build ~params:{ Cdr.Freq_track.max_f = 1; adapt_length = 0 } small);
       false
     with Invalid_argument _ -> true)

(* ---------- scenarios ---------- *)

let test_scenarios_well_formed () =
  List.iter
    (fun s ->
      match Cdr.Config.validate s.Cdr.Scenario.config with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (s.Cdr.Scenario.name ^ ": " ^ msg))
    Cdr.Scenario.all;
  Alcotest.(check bool) "lookup" true (Cdr.Scenario.find "sonet-multiplexer" <> None);
  Alcotest.(check bool) "unknown" true (Cdr.Scenario.find "nope" = None)

let test_scenario_story () =
  (* the paper's narrative: the nominal design meets 1e-10, the
     interference-degraded one misses it *)
  let nominal, _ = Cdr.Scenario.meets_specification Cdr.Scenario.sonet_multiplexer in
  let noisy, noisy_ber = Cdr.Scenario.meets_specification Cdr.Scenario.sonet_multiplexer_noisy in
  Alcotest.(check bool) "nominal passes" true nominal;
  Alcotest.(check bool) "noisy fails" false noisy;
  Alcotest.(check bool) "failure is within a couple of decades" true
    (noisy_ber < 1e-7 && noisy_ber > 1e-10)

(* ---------- jitter tolerance ---------- *)

let test_tolerance_monotone_probes () =
  let cfg = { small with Cdr.Config.sigma_w = 0.05 } in
  let result = Cdr.Tolerance.analyze ~ber_target:1e-9 ~max_amplitude_bins:6 cfg in
  Alcotest.(check bool) "tolerance in range" true
    (result.Cdr.Tolerance.tolerance_bins >= 0 && result.Cdr.Tolerance.tolerance_bins <= 6);
  (* every probe at or below the tolerance meets the target; the first probe
     above it fails (bisection invariant) *)
  List.iter
    (fun p ->
      if p.Cdr.Tolerance.amplitude_bins <= result.Cdr.Tolerance.tolerance_bins then
        Alcotest.(check bool) "meets target" true (p.Cdr.Tolerance.ber <= 1e-9))
    result.Cdr.Tolerance.probes;
  check_float ~eps:1e-12 "ui conversion"
    (float_of_int result.Cdr.Tolerance.tolerance_bins *. Cdr.Config.delta cfg)
    result.Cdr.Tolerance.tolerance_ui

let test_tolerance_shrinks_with_target () =
  let cfg = { small with Cdr.Config.sigma_w = 0.05 } in
  let loose = Cdr.Tolerance.analyze ~ber_target:1e-6 ~max_amplitude_bins:6 cfg in
  let tight = Cdr.Tolerance.analyze ~ber_target:1e-12 ~max_amplitude_bins:6 cfg in
  Alcotest.(check bool) "tighter target, smaller tolerance" true
    (tight.Cdr.Tolerance.tolerance_bins <= loose.Cdr.Tolerance.tolerance_bins)

let test_tolerance_validation () =
  Alcotest.(check bool) "bad target" true
    (try ignore (Cdr.Tolerance.analyze ~ber_target:2.0 small); false
     with Invalid_argument _ -> true)

(* ---------- report & sweep ---------- *)

let test_report_lines () =
  let report = Cdr.Report.run small in
  let header = Cdr.Report.header_line report in
  Alcotest.(check bool) "header mentions counter" true
    (String.length header > 0 && String.sub header 0 8 = "COUNTER:");
  let footer = Cdr.Report.footer_line report in
  Alcotest.(check bool) "footer mentions size" true (String.sub footer 0 5 = "Size:");
  Alcotest.(check bool) "density table non-empty" true
    (String.length (Cdr.Report.density_table report) > 100)

let test_sweep_counter () =
  let points = Cdr.Sweep.counter_lengths small [ 2; 3; 4 ] in
  Alcotest.(check int) "three points" 3 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "ber sane" true
        (p.Cdr.Sweep.report.Cdr.Report.ber >= 0.0 && p.Cdr.Sweep.report.Cdr.Report.ber <= 1.0))
    points

(* ---------- properties ---------- *)

let small_cfg_gen =
  let open QCheck2.Gen in
  let* grid_exp = int_range 4 5 in
  let* n_phases = oneofl [ 4; 8 ] in
  let* counter_length = int_range 2 4 in
  let* max_run = int_range 2 5 in
  let* sigma_w = float_range 0.02 0.25 in
  let* mean_steps = float_range 0.0 0.5 in
  let* detector_dead_zone = int_range 0 2 in
  let grid_points = 1 lsl grid_exp in
  return
    {
      Cdr.Config.default with
      Cdr.Config.grid_points;
      n_phases;
      counter_length;
      max_run;
      sigma_w;
      detector_dead_zone;
      nw_max_atoms = 17;
      nr = Prob.Jitter.drift ~max_steps:2 ~mean_steps ();
    }

let prop_model_stochastic =
  QCheck2.Test.make ~name:"cdr chains are stochastic with full reachability" ~count:20
    small_cfg_gen (fun cfg ->
      let model = Cdr.Model.build_direct cfg in
      let sums = Sparse.Csr.row_sums (Markov.Chain.tpm model.Cdr.Model.chain) in
      Array.for_all (fun s -> abs_float (s -. 1.0) < 1e-12) sums)

let prop_direct_equals_network =
  QCheck2.Test.make ~name:"direct and network constructions agree" ~count:10 small_cfg_gen
    (fun cfg ->
      models_equal (Cdr.Model.build_direct cfg) (Cdr.Model.build_via_network cfg))

let prop_ber_in_range =
  QCheck2.Test.make ~name:"ber lies in [0, 1]" ~count:10 small_cfg_gen (fun cfg ->
      let model = Cdr.Model.build_direct cfg in
      let result, _ = Cdr.Ber.analyze model in
      result.Cdr.Ber.ber >= 0.0 && result.Cdr.Ber.ber <= 1.0)

let () =
  Alcotest.run "cdr"
    [
      ( "config",
        [
          Alcotest.test_case "default valid" `Quick test_config_default_valid;
          Alcotest.test_case "rejections" `Quick test_config_rejections;
          Alcotest.test_case "geometry" `Quick test_config_geometry;
          Alcotest.test_case "nw pmf capped" `Quick test_config_nw_pmf_capped;
        ] );
      ( "data-source",
        [
          Alcotest.test_case "encode roundtrip" `Quick test_data_source_encode_roundtrip;
          Alcotest.test_case "forced transition" `Quick test_data_source_forced_transition;
          Alcotest.test_case "transition probability" `Quick test_data_source_transition_probability;
        ] );
      ( "phase-detector",
        [
          Alcotest.test_case "decisions" `Quick test_detector_decisions;
          Alcotest.test_case "lead prob vs gaussian" `Quick test_detector_lead_probability_matches_gaussian;
          Alcotest.test_case "lead prob monotone" `Quick test_detector_lead_monotone_in_phase;
          Alcotest.test_case "dead zone" `Quick test_detector_dead_zone;
          Alcotest.test_case "dead-zone model consistent" `Quick test_dead_zone_model_consistent;
        ] );
      ("counter", [ Alcotest.test_case "overflow behaviour" `Quick test_counter_overflow_behaviour ]);
      ( "phase-error",
        [
          Alcotest.test_case "wrap/crossing" `Quick test_phase_wrap_and_crossing;
          Alcotest.test_case "update directions" `Quick test_phase_update_directions;
        ] );
      ( "model",
        [
          Alcotest.test_case "direct = network" `Slow test_direct_equals_network;
          Alcotest.test_case "irreducible" `Quick test_model_chain_is_irreducible;
          Alcotest.test_case "state count" `Quick test_model_state_count;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "well-formed" `Quick test_hierarchy_well_formed;
          Alcotest.test_case "lumps only phase" `Quick test_hierarchy_lumps_only_phase;
        ] );
      ( "ber",
        [
          Alcotest.test_case "solvers agree" `Slow test_solvers_agree_on_model;
          Alcotest.test_case "marginal mass" `Quick test_phase_marginal_sums_to_one;
          Alcotest.test_case "tail probability" `Quick test_ber_tail_probability;
          Alcotest.test_case "marginal vs convolution" `Slow test_ber_marginal_vs_convolution;
          Alcotest.test_case "monotone in sigma" `Slow test_ber_increases_with_sigma;
          Alcotest.test_case "eye density mass" `Quick test_eye_density_mass;
        ] );
      ( "cycle-slip",
        [
          Alcotest.test_case "measures" `Slow test_cycle_slip_measures;
          Alcotest.test_case "monotone in drift" `Slow test_slip_rate_increases_with_drift;
          Alcotest.test_case "first slip = passage where slips are frequent" `Quick
            test_first_slip_matches_passage;
          Alcotest.test_case "rare first slip meets 1/flux" `Quick test_first_slip_rare_meets_flux;
          Alcotest.test_case "cancel aborts the first-slip solve" `Quick test_first_slip_cancel;
        ] );
      ( "clock-jitter-acquisition",
        [
          Alcotest.test_case "jitter statistics" `Quick test_clock_jitter_statistics;
          Alcotest.test_case "jitter monotone in sigma" `Slow test_clock_jitter_grows_with_sigma;
          Alcotest.test_case "jitter spectrum" `Quick test_jitter_spectrum;
          Alcotest.test_case "acquisition times" `Quick test_acquisition_times;
          Alcotest.test_case "band validation" `Quick test_acquisition_band_validation;
        ] );
      ( "integration",
        [
          Alcotest.test_case "multigrid on unstructured chain" `Quick test_multigrid_random_block_chain;
        ] );
      ( "activity",
        [
          Alcotest.test_case "metrics" `Quick test_activity_metrics;
          Alcotest.test_case "drift balance identity" `Slow test_activity_drift_balance;
          Alcotest.test_case "identifiability guard" `Quick test_activity_guard;
        ] );
      ( "freq-track",
        [
          Alcotest.test_case "stochastic" `Quick test_freq_track_stochastic;
          Alcotest.test_case "cancels drift" `Slow test_freq_register_cancels_drift;
          Alcotest.test_case "idle without drift" `Slow test_freq_track_idle_without_drift;
          Alcotest.test_case "validation" `Quick test_freq_track_validation;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "well-formed" `Quick test_scenarios_well_formed;
          Alcotest.test_case "paper narrative" `Slow test_scenario_story;
        ] );
      ( "tolerance",
        [
          Alcotest.test_case "bisection invariant" `Slow test_tolerance_monotone_probes;
          Alcotest.test_case "shrinks with target" `Slow test_tolerance_shrinks_with_target;
          Alcotest.test_case "validation" `Quick test_tolerance_validation;
        ] );
      ( "report-sweep",
        [
          Alcotest.test_case "report lines" `Quick test_report_lines;
          Alcotest.test_case "counter sweep" `Slow test_sweep_counter;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_model_stochastic; prop_direct_equals_network; prop_ber_in_range ] );
    ]
