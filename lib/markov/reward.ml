let long_run_average ~pi ~reward = Stat.expectation ~pi ~f:reward

let transition_rate chain ~pi ~reward =
  if Array.length pi <> Chain.n_states chain then invalid_arg "Reward: pi dimension mismatch";
  Sparse.Csr.fold (Chain.tpm chain) ~init:0.0 ~f:(fun acc i j v -> acc +. (pi.(i) *. v *. reward i j))

let discounted ?(tol = 1e-12) ?(max_iter = 1_000_000) chain ~gamma ~reward =
  if gamma < 0.0 || gamma >= 1.0 then invalid_arg "Reward.discounted: gamma must lie in [0, 1)";
  let n = Chain.n_states chain in
  let p = Chain.tpm chain in
  let r = Array.init n reward in
  let v = Array.copy r in
  let rec loop k =
    if k >= max_iter then ()
    else begin
      (* Gauss-Seidel sweep on v = r + gamma P v: contraction with modulus
         gamma, so convergence is geometric *)
      let delta = ref 0.0 in
      for i = 0 to n - 1 do
        let acc = ref 0.0 in
        Sparse.Csr.iter_row p i (fun j w -> acc := !acc +. (w *. v.(j)));
        let nv = r.(i) +. (gamma *. !acc) in
        delta := Float.max !delta (abs_float (nv -. v.(i)));
        v.(i) <- nv
      done;
      if !delta > tol then loop (k + 1)
    end
  in
  loop 0;
  v
