let long_run_average ~pi ~reward = Stat.expectation ~pi ~f:reward

let transition_rate chain ~pi ~reward =
  if Array.length pi <> Chain.n_states chain then invalid_arg "Reward: pi dimension mismatch";
  Sparse.Csr.fold (Chain.tpm chain) ~init:0.0 ~f:(fun acc i j v -> acc +. (pi.(i) *. v *. reward i j))
