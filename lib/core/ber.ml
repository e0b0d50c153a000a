type result = {
  ber : float;
  phase_density : Linalg.Vec.t;
  eye_density : (float * float) array;
}

let tail_probability cfg ~phase =
  let sigma = cfg.Config.sigma_w in
  if sigma = 0.0 then if abs_float phase >= 0.5 then 1.0 else 0.0
  else Prob.Gaussian.q ((0.5 -. phase) /. sigma) +. Prob.Gaussian.q ((0.5 +. phase) /. sigma)

let check_rho cfg rho =
  if Array.length rho <> cfg.Config.grid_points then
    invalid_arg "Ber: marginal length must equal grid_points"

let of_marginal cfg ~rho =
  check_rho cfg rho;
  let acc = ref 0.0 and c = ref 0.0 in
  Array.iteri
    (fun i p ->
      let v = (p *. tail_probability cfg ~phase:(Config.phase_of_bin cfg i)) -. !c in
      let t = !acc +. v in
      c := t -. !acc -. v;
      acc := t)
    rho;
  !acc

(* Express rho on the n_w lattice (step = scale * delta) and convolve the two
   pmfs. rho bins whose phase is not on the n_w lattice are snapped to the
   nearest lattice point, which is why this estimate is discretization
   limited while [of_marginal] is not. *)
let convolved cfg ~rho =
  check_rho cfg rho;
  let m = cfg.Config.grid_points in
  let nw, scale = Config.nw_pmf cfg in
  let rho_entries = ref [] in
  Array.iteri
    (fun i p ->
      if p > 0.0 then begin
        let offset_bins = i - (m / 2) in
        let lattice = int_of_float (Float.round (float_of_int offset_bins /. float_of_int scale)) in
        rho_entries := (lattice, p) :: !rho_entries
      end)
    rho;
  let rho_pmf = Prob.Pmf.create !rho_entries in
  (Prob.Pmf.convolve rho_pmf nw, scale)

let eye_density cfg ~rho =
  let pmf, scale = convolved cfg ~rho in
  let step = float_of_int scale *. Config.delta cfg in
  let out = ref [] in
  Prob.Pmf.iter pmf (fun k p -> out := (float_of_int k *. step, p) :: !out);
  Array.of_list (List.rev !out)

let of_convolution cfg ~rho =
  let pmf, scale = convolved cfg ~rho in
  let step = float_of_int scale *. Config.delta cfg in
  Prob.Pmf.fold pmf ~init:0.0 ~f:(fun acc k p ->
      if abs_float (float_of_int k *. step) > 0.5 then acc +. p else acc)

let of_density cfg ~rho =
  { ber = of_marginal cfg ~rho; phase_density = rho; eye_density = eye_density cfg ~rho }

let analyze ?solver ?ctx model =
  let solution = Model.solve ?solver ?ctx model in
  let rho = Model.phase_marginal model ~pi:solution.Markov.Solution.pi in
  (of_density model.Model.config ~rho, solution)
