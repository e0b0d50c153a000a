type family = Sinusoidal | Wander of float

type point = { amplitude_bins : int; ber : float }

type result = {
  ber_target : float;
  tolerance_bins : int;
  tolerance_ui : float;
  probes : point list;
}

let nr_of_family family amplitude_bins =
  match family with
  | Sinusoidal -> Prob.Jitter.sinusoidal_equivalent ~amplitude_steps:amplitude_bins
  | Wander ratio ->
      if ratio <= 0.0 || ratio > 1.0 then invalid_arg "Tolerance: wander rms ratio out of (0, 1]";
      (* the ratio is taken of the profile's largest representable rms so
         every amplitude in the bisection is feasible *)
      Prob.Jitter.symmetric_wander ~max_steps:amplitude_bins
        ~rms_steps:(ratio *. Prob.Jitter.max_wander_rms ~max_steps:amplitude_bins)

let ber_at cfg family amplitude_bins =
  let cfg = Config.create_exn { cfg with Config.nr = nr_of_family family amplitude_bins } in
  let model = Model.build cfg in
  let solution = Model.solve ~ctx:(Context.make ~tol:1e-11 ()) model in
  let rho = Model.phase_marginal model ~pi:solution.Markov.Solution.pi in
  Ber.of_marginal cfg ~rho

let analyze ?(family = Sinusoidal) ?max_amplitude_bins ~ber_target cfg =
  if ber_target <= 0.0 || ber_target >= 1.0 then
    invalid_arg "Tolerance.analyze: ber_target must lie in (0, 1)";
  let max_amp =
    match max_amplitude_bins with
    | Some a -> a
    | None -> max 1 (cfg.Config.grid_points / 4)
  in
  let probes = ref [] in
  let probe amp =
    let ber = ber_at cfg family amp in
    probes := { amplitude_bins = amp; ber } :: !probes;
    ber
  in
  (* bisection on the (monotone in practice) amplitude -> BER map *)
  let rec bisect lo hi =
    (* invariant: amplitude lo meets the target (or lo = 0), hi fails *)
    if hi - lo <= 1 then lo
    else begin
      let mid = (lo + hi) / 2 in
      if probe mid <= ber_target then bisect mid hi else bisect lo mid
    end
  in
  let tolerance_bins =
    if probe max_amp <= ber_target then max_amp
    else if probe 1 > ber_target then 0
    else bisect 1 max_amp
  in
  let probes = List.sort (fun a b -> compare a.amplitude_bins b.amplitude_bins) !probes in
  {
    ber_target;
    tolerance_bins;
    tolerance_ui = float_of_int tolerance_bins *. Config.delta cfg;
    probes;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>jitter tolerance at BER <= %.1e: %d bins (%.4f UI peak)@," t.ber_target
    t.tolerance_bins t.tolerance_ui;
  List.iter
    (fun { amplitude_bins; ber } ->
      Format.fprintf ppf "  amplitude %3d bins -> BER %.3e %s@," amplitude_bins ber
        (if ber <= t.ber_target then "ok" else "FAIL"))
    t.probes;
  Format.fprintf ppf "@]"
