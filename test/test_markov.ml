(* Tests for the Markov-chain engine: chain validation, all stationary
   solvers against analytic results and each other, lumping, first-passage
   computations, and statistics of state functions. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let chain_of_rows rows =
  Markov.Chain.of_dense (Linalg.Mat.of_arrays rows)

(* Two-state chain with flip probabilities a, b: pi = (b, a) / (a + b),
   subdominant eigenvalue 1 - a - b. *)
let two_state a b = chain_of_rows [| [| 1.0 -. a; a |]; [| b; 1.0 -. b |] |]

let two_state_pi a b = [| b /. (a +. b); a /. (a +. b) |]

(* Random-walk-with-reflection birth-death chain of n states: detailed
   balance gives pi_i proportional to (p/q)^i. *)
let birth_death ~n ~p =
  let q = 1.0 -. p in
  let acc = Sparse.Coo.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    if i = 0 then begin
      Sparse.Coo.add acc ~row:0 ~col:0 q;
      Sparse.Coo.add acc ~row:0 ~col:1 p
    end
    else if i = n - 1 then begin
      Sparse.Coo.add acc ~row:i ~col:(i - 1) q;
      Sparse.Coo.add acc ~row:i ~col:i p
    end
    else begin
      Sparse.Coo.add acc ~row:i ~col:(i - 1) q;
      Sparse.Coo.add acc ~row:i ~col:(i + 1) p
    end
  done;
  Markov.Chain.of_csr (Sparse.Coo.to_csr acc)

let birth_death_pi ~n ~p =
  let r = p /. (1.0 -. p) in
  let w = Array.init n (fun i -> r ** float_of_int i) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

(* ---------- Chain ---------- *)

let test_chain_rejects_non_square () =
  let m = Sparse.Csr.of_dense (Linalg.Mat.init ~rows:2 ~cols:3 (fun _ _ -> 0.5)) in
  Alcotest.(check bool) "raises" true
    (try ignore (Markov.Chain.of_csr m); false with Markov.Chain.Not_stochastic _ -> true)

let test_chain_rejects_bad_rows () =
  Alcotest.(check bool) "row sum" true
    (try ignore (chain_of_rows [| [| 0.5; 0.4 |]; [| 0.5; 0.5 |] |]); false
     with Markov.Chain.Not_stochastic _ -> true);
  Alcotest.(check bool) "negative" true
    (try ignore (chain_of_rows [| [| 1.5; -0.5 |]; [| 0.5; 0.5 |] |]); false
     with Markov.Chain.Not_stochastic _ -> true)

let test_chain_step_residual () =
  let c = two_state 0.3 0.1 in
  let pi = two_state_pi 0.3 0.1 in
  check_float ~eps:1e-14 "stationary residual" 0.0 (Markov.Chain.residual c pi);
  let next = Markov.Chain.step c [| 1.0; 0.0 |] in
  check_float "step" 0.7 next.(0);
  check_float "step" 0.3 next.(1)

let test_chain_irreducibility () =
  Alcotest.(check bool) "two-state irreducible" true (Markov.Chain.is_irreducible (two_state 0.3 0.1));
  let reducible = chain_of_rows [| [| 1.0; 0.0 |]; [| 0.5; 0.5 |] |] in
  Alcotest.(check bool) "absorbing not irreducible" false (Markov.Chain.is_irreducible reducible)

(* ---------- individual solvers vs analytic stationary vectors ---------- *)

let solver_cases =
  [
    ("power", fun c -> (Markov.Power.solve ~tol:1e-14 c).Markov.Solution.pi);
    ("gauss-seidel", fun c -> (Markov.Splitting.solve ~tol:1e-14 c).Markov.Solution.pi);
    ("gth", fun c -> Markov.Gth.solve c);
  ]

let test_solvers_two_state () =
  let c = two_state 0.3 0.1 in
  let expected = two_state_pi 0.3 0.1 in
  List.iter
    (fun (name, solve) ->
      let pi = solve c in
      check_float ~eps:1e-10 (name ^ " pi0") expected.(0) pi.(0);
      check_float ~eps:1e-10 (name ^ " pi1") expected.(1) pi.(1))
    solver_cases

let test_solvers_birth_death () =
  let n = 20 and p = 0.35 in
  let c = birth_death ~n ~p in
  let expected = birth_death_pi ~n ~p in
  List.iter
    (fun (name, solve) ->
      let pi = solve c in
      check_float ~eps:1e-8 (name ^ " l1 error") 0.0 (Linalg.Vec.dist_l1 pi expected))
    solver_cases

let test_gth_reducible_detected () =
  let reducible =
    Linalg.Mat.of_arrays [| [| 0.5; 0.5; 0.0 |]; [| 0.5; 0.5; 0.0 |]; [| 0.0; 0.0; 1.0 |] |]
  in
  Alcotest.(check bool) "failure" true
    (try ignore (Markov.Gth.solve_dense reducible); false with Failure _ -> true)

let test_gth_nearly_uncoupled () =
  (* two 2-cliques joined by 1e-12 couplings: GTH keeps full relative
     accuracy where subtraction-based elimination would lose it *)
  let e = 1e-12 in
  let c =
    chain_of_rows
      [|
        [| 0.5 -. e; 0.5; e; 0.0 |];
        [| 0.5; 0.5 -. e; 0.0; e |];
        [| e; 0.0; 0.5 -. e; 0.5 |];
        [| 0.0; e; 0.5; 0.5 -. e |];
      |]
  in
  let pi = Markov.Gth.solve c in
  (* symmetry: all states equal mass *)
  Array.iter (fun v -> check_float ~eps:1e-13 "symmetric mass" 0.25 v) pi

(* ---------- partitions & multigrid ---------- *)

let test_partition_validation () =
  Alcotest.(check bool) "non-contiguous rejected" true
    (try ignore (Markov.Partition.create [| 0; 2 |]); false with Invalid_argument _ -> true);
  let p = Markov.Partition.pair_consecutive 5 in
  Alcotest.(check int) "coarse count" 3 p.Markov.Partition.n_coarse;
  Alcotest.(check int) "odd leftover" 1 (Markov.Partition.block_size p 2)

(* the restriction the multilevel solvers aggregate with: per-block sums *)
let block_sums (p : Markov.Partition.t) x =
  let out = Array.make p.Markov.Partition.n_coarse 0.0 in
  Array.iteri (fun i v -> out.(p.map.(i)) <- out.(p.map.(i)) +. v) x;
  out

let test_partition_restrict_prolong () =
  let p = Markov.Partition.pair_consecutive 4 in
  let x = [| 0.1; 0.2; 0.3; 0.4 |] in
  let block_weight = block_sums p x in
  check_float "block0" 0.3 block_weight.(0);
  check_float "block1" 0.7 block_weight.(1);
  (* prolonging the restriction with the same weights recovers them *)
  let back = Array.copy x in
  Markov.Partition.prolong_into p ~coarse:block_weight ~block_weight back;
  check_float ~eps:1e-12 "prolong recovers weights" 0.0 (Linalg.Vec.dist_l1 back x);
  (* new coarse masses are spread in proportion to the weights *)
  let y = Array.copy x in
  Markov.Partition.prolong_into p ~coarse:[| 0.6; 0.4 |] ~block_weight y;
  check_float ~eps:1e-15 "block0 first" 0.2 y.(0);
  check_float ~eps:1e-15 "block0 second" 0.4 y.(1);
  check_float ~eps:1e-15 "block1 first" (0.4 *. 3.0 /. 7.0) y.(2);
  check_float ~eps:1e-15 "block1 second" (0.4 *. 4.0 /. 7.0) y.(3);
  Alcotest.(check bool) "coarse dimension checked" true
    (try Markov.Partition.prolong_into p ~coarse:[| 1.0 |] ~block_weight y; false
     with Invalid_argument _ -> true)

let test_prolong_zero_weight_block () =
  let p = Markov.Partition.pair_consecutive 4 in
  let x = [| 0.0; 0.0; 1.0; 3.0 |] in
  Markov.Partition.prolong_into p ~coarse:[| 0.6; 0.4 |] ~block_weight:(block_sums p x) x;
  check_float "uniform split" 0.3 x.(0);
  check_float "uniform split" 0.3 x.(1);
  check_float "weighted split" 0.1 x.(2);
  check_float "weighted split" 0.3 x.(3)

let test_multigrid_large_birth_death () =
  (* large enough that the V-cycle actually recurses past GTH's direct size *)
  let n = 1500 and p = 0.45 in
  let c = birth_death ~n ~p in
  let hierarchy = Markov.Multigrid.default_hierarchy ~n ~coarsest:128 in
  let sol, stats = Markov.Multigrid.solve ~tol:1e-12 ~hierarchy c in
  Alcotest.(check bool) "converged" true sol.Markov.Solution.converged;
  Alcotest.(check bool) "recursed" true (stats.Markov.Multigrid.levels >= 2);
  Alcotest.(check bool) "coarsest small" true
    (stats.Markov.Multigrid.coarsest_size <= Markov.Gth.max_direct_size);
  check_float ~eps:1e-7 "matches analytic" 0.0
    (Linalg.Vec.dist_l1 sol.Markov.Solution.pi (birth_death_pi ~n ~p))

let test_multigrid_hierarchy_validation () =
  let c = birth_death ~n:10 ~p:0.3 in
  let bad = [ Markov.Partition.pair_consecutive 8 ] in
  Alcotest.(check bool) "size mismatch rejected" true
    (try ignore (Markov.Multigrid.solve ~hierarchy:bad c); false with Invalid_argument _ -> true)

let test_default_hierarchy_shrinks () =
  let h = Markov.Multigrid.default_hierarchy ~n:1000 ~coarsest:100 in
  let sizes =
    List.fold_left (fun acc (p : Markov.Partition.t) -> p.Markov.Partition.n_coarse :: acc) [ 1000 ] h
  in
  (* sizes accumulated in reverse: last computed is head *)
  (match sizes with
  | final :: _ -> Alcotest.(check bool) "reaches coarsest" true (final <= 100)
  | [] -> Alcotest.fail "empty");
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone shrink" true (strictly_decreasing sizes)

(* ---------- passage ---------- *)

let test_hitting_time_two_state () =
  (* expected time to reach state 1 from state 0 with flip prob a: 1/a *)
  let a = 0.25 in
  let c = two_state a 0.5 in
  let m = Markov.Passage.mean_hitting_times c ~target:(fun i -> i = 1) in
  check_float ~eps:1e-8 "1/a" (1.0 /. a) m.(0);
  check_float "target itself" 0.0 m.(1)

let test_hitting_time_ring () =
  (* deterministic 5-cycle: hitting time of state 0 from state i is 5 - i *)
  let n = 5 in
  let acc = Sparse.Coo.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    Sparse.Coo.add acc ~row:i ~col:((i + 1) mod n) 1.0
  done;
  let c = Markov.Chain.of_csr (Sparse.Coo.to_csr acc) in
  let m = Markov.Passage.mean_hitting_times c ~target:(fun i -> i = 0) in
  for i = 1 to n - 1 do
    check_float ~eps:1e-9 (Printf.sprintf "from %d" i) (float_of_int (n - i)) m.(i)
  done

let test_kac_return_time () =
  (* stationary flux out of a set equals flux in *)
  let c = birth_death ~n:8 ~p:0.4 in
  let pi = Markov.Gth.solve c in
  let in_a i = i < 2 in
  let op = Cdr_op.Csr_backend.create (Markov.Chain.tpm c) in
  let flux_out = Markov.Passage.flux op ~pi ~crossing:(fun i j -> in_a i && not (in_a j)) in
  let flux_in = Markov.Passage.flux op ~pi ~crossing:(fun i j -> (not (in_a i)) && in_a j) in
  check_float ~eps:1e-12 "flux balance" flux_out flux_in

let test_flux_total () =
  let c = two_state 0.3 0.1 in
  let pi = two_state_pi 0.3 0.1 in
  let op = Cdr_op.Csr_backend.create (Markov.Chain.tpm c) in
  check_float ~eps:1e-12 "total flux is 1" 1.0
    (Markov.Passage.flux op ~pi ~crossing:(fun _ _ -> true))

let test_empty_target_rejected () =
  Alcotest.check_raises "empty target" (Invalid_argument "Passage: empty target set") (fun () ->
      ignore (Markov.Passage.mean_hitting_times (two_state 0.1 0.1) ~target:(fun _ -> false)))

let test_hitting_time_budget_exhausted () =
  (* reaching the top of a birth-death chain pushed toward 0 takes ~4^11
     steps; 20 sweeps end before the first extrapolation window, and the
     unconverged iterate must not come back as an answer *)
  let c = birth_death ~n:12 ~p:0.2 in
  Alcotest.(check bool) "raises Not_converged" true
    (try
       ignore (Markov.Passage.mean_hitting_times ~max_iter:20 c ~target:(fun i -> i = 11));
       false
     with Markov.Passage.Not_converged { sweeps; _ } -> sweeps = 20)

(* ---------- rewards ---------- *)

let test_reward_long_run_average () =
  let pi = [| 0.25; 0.75 |] in
  check_float "average" 1.75 (Markov.Reward.long_run_average ~pi ~reward:(fun i -> float_of_int (i + 1)))

let test_reward_transition_rate () =
  (* counting every transition gives rate 1; counting only self-loops gives
     the expected self-loop mass *)
  let c = two_state 0.3 0.1 in
  let pi = two_state_pi 0.3 0.1 in
  check_float ~eps:1e-12 "all transitions" 1.0
    (Markov.Reward.transition_rate c ~pi ~reward:(fun _ _ -> 1.0));
  let self_mass =
    Markov.Reward.transition_rate c ~pi ~reward:(fun i j -> if i = j then 1.0 else 0.0)
  in
  check_float ~eps:1e-12 "self loops" ((0.25 *. 0.7) +. (0.75 *. 0.9)) self_mass

(* ---------- transient evolution (repeated Chain.step) ---------- *)

let distribution_at c ~initial ~steps =
  let d = ref (Array.copy initial) in
  for _ = 1 to steps do
    d := Markov.Chain.step c !d
  done;
  !d

(* total-variation distance to [pi] after k = 0 .. steps forward steps *)
let distance_to_stationarity c ~initial ~pi ~steps =
  let d = ref (Array.copy initial) in
  Array.init (steps + 1) (fun k ->
      if k > 0 then d := Markov.Chain.step c !d;
      0.5 *. Linalg.Vec.dist_l1 !d pi)

let test_evolution_distribution_at () =
  let c = two_state 0.3 0.1 in
  let one_step = distribution_at c ~initial:[| 1.0; 0.0 |] ~steps:1 in
  check_float "p0" 0.7 one_step.(0);
  check_float "p1" 0.3 one_step.(1);
  let zero_steps = distribution_at c ~initial:[| 1.0; 0.0 |] ~steps:0 in
  check_float "identity at 0 steps" 1.0 zero_steps.(0)

let test_evolution_distance_monotone () =
  let c = birth_death ~n:12 ~p:0.4 in
  let pi = Markov.Gth.solve c in
  let initial = Array.init 12 (fun i -> if i = 0 then 1.0 else 0.0) in
  let d = distance_to_stationarity c ~initial ~pi ~steps:50 in
  for k = 0 to 49 do
    Alcotest.(check bool) "non-increasing" true (d.(k + 1) <= d.(k) +. 1e-12)
  done;
  Alcotest.(check bool) "decays" true (d.(50) < d.(0))

let test_evolution_settling_time () =
  (* first k with TV distance <= epsilon; the two-state TV distance decays
     exactly as |1 - a - b|^k * d(0) *)
  let c = two_state 0.3 0.2 in
  let pi = two_state_pi 0.3 0.2 in
  let settling ~epsilon initial =
    let d = distance_to_stationarity c ~initial ~pi ~steps:1000 in
    let rec first k = if k > 1000 then None else if d.(k) <= epsilon then Some k else first (k + 1) in
    first 0
  in
  (match settling ~epsilon:1e-6 [| 1.0; 0.0 |] with
  | Some k ->
      let lambda = 0.5 in
      let d0 = 0.5 *. Linalg.Vec.dist_l1 [| 1.0; 0.0 |] pi in
      let expected = int_of_float (ceil (log (1e-6 /. d0) /. log lambda)) in
      Alcotest.(check bool) "close to analytic" true (abs (k - expected) <= 1)
  | None -> Alcotest.fail "did not settle");
  (* starting at stationarity settles immediately *)
  match settling ~epsilon:1e-3 (Array.copy pi) with
  | Some 0 -> ()
  | Some k -> Alcotest.fail (Printf.sprintf "expected 0, got %d" k)
  | None -> Alcotest.fail "did not settle"

(* ---------- stat ---------- *)

let test_expectation_variance () =
  let pi = [| 0.25; 0.75 |] in
  let f i = float_of_int i in
  check_float "mean" 0.75 (Markov.Stat.expectation ~pi ~f);
  check_float "variance" (0.75 *. 0.25) (Markov.Stat.variance ~pi ~f)

let test_autocovariance_two_state () =
  (* for the two-state chain, corr(f(X_0), f(X_k)) = (1 - a - b)^k exactly *)
  let a = 0.3 and b = 0.2 in
  let c = two_state a b in
  let pi = two_state_pi a b in
  let rho = Markov.Stat.autocorrelation c ~pi ~f:float_of_int ~lags:5 in
  let lambda = 1.0 -. a -. b in
  for k = 0 to 5 do
    check_float ~eps:1e-12 (Printf.sprintf "lag %d" k) (lambda ** float_of_int k) rho.(k)
  done

let test_marginal () =
  let pi = [| 0.1; 0.2; 0.3; 0.4 |] in
  let m = Markov.Stat.marginal ~pi ~label:(fun i -> i mod 2) ~n_labels:2 in
  check_float "even" 0.4 m.(0);
  check_float "odd" 0.6 m.(1)

(* ---------- properties ---------- *)

let random_chain_gen =
  let open QCheck2.Gen in
  let* n = int_range 2 15 in
  let* raw = array_size (return (n * n)) (float_range 0.05 1.0) in
  return
    (Markov.Chain.of_dense ~tol:1.0
       (Linalg.Mat.init ~rows:n ~cols:n (fun i j ->
            let row_sum = ref 0.0 in
            for k = 0 to n - 1 do
              row_sum := !row_sum +. raw.((i * n) + k)
            done;
            raw.((i * n) + j) /. !row_sum)))

let prop_solvers_agree =
  QCheck2.Test.make ~name:"solvers agree on random dense chains" ~count:100 random_chain_gen
    (fun c ->
      let reference = Markov.Gth.solve c in
      List.for_all
        (fun (_, solve) -> Linalg.Vec.dist_l1 (solve c) reference < 1e-7)
        solver_cases)

let prop_stationary_invariance =
  QCheck2.Test.make ~name:"gth output is stationary" ~count:100 random_chain_gen (fun c ->
      Markov.Chain.residual c (Markov.Gth.solve c) < 1e-12)

let prop_hitting_times_one_step_consistent =
  QCheck2.Test.make ~name:"hitting times satisfy m = 1 + Qm" ~count:100 random_chain_gen (fun c ->
      let n = Markov.Chain.n_states c in
      let target i = i = 0 in
      let m = Markov.Passage.mean_hitting_times ~tol:1e-12 c ~target in
      let ok = ref true in
      for i = 1 to n - 1 do
        let rhs = ref 1.0 in
        Sparse.Csr.iter_row (Markov.Chain.tpm c) i (fun j v ->
            if not (target j) then rhs := !rhs +. (v *. m.(j)));
        if abs_float (m.(i) -. !rhs) > 1e-6 *. (1.0 +. m.(i)) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "markov"
    [
      ( "chain",
        [
          Alcotest.test_case "rejects non-square" `Quick test_chain_rejects_non_square;
          Alcotest.test_case "rejects bad rows" `Quick test_chain_rejects_bad_rows;
          Alcotest.test_case "step/residual" `Quick test_chain_step_residual;
          Alcotest.test_case "irreducibility" `Quick test_chain_irreducibility;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "two-state analytic" `Quick test_solvers_two_state;
          Alcotest.test_case "birth-death analytic" `Quick test_solvers_birth_death;
          Alcotest.test_case "gth reducible detected" `Quick test_gth_reducible_detected;
          Alcotest.test_case "gth nearly uncoupled" `Quick test_gth_nearly_uncoupled;
        ] );
      ( "aggregation-multigrid",
        [
          Alcotest.test_case "partition validation" `Quick test_partition_validation;
          Alcotest.test_case "restrict/prolong" `Quick test_partition_restrict_prolong;
          Alcotest.test_case "zero-weight block" `Quick test_prolong_zero_weight_block;
          Alcotest.test_case "multigrid large birth-death" `Slow test_multigrid_large_birth_death;
          Alcotest.test_case "hierarchy validation" `Quick test_multigrid_hierarchy_validation;
          Alcotest.test_case "default hierarchy shrinks" `Quick test_default_hierarchy_shrinks;
        ] );
      ( "passage",
        [
          Alcotest.test_case "two-state hitting time" `Quick test_hitting_time_two_state;
          Alcotest.test_case "ring hitting time" `Quick test_hitting_time_ring;
          Alcotest.test_case "stationary flux balance" `Quick test_kac_return_time;
          Alcotest.test_case "total flux" `Quick test_flux_total;
          Alcotest.test_case "empty target rejected" `Quick test_empty_target_rejected;
          Alcotest.test_case "sweep budget exhausted raises" `Quick test_hitting_time_budget_exhausted;
        ] );
      ( "reward",
        [
          Alcotest.test_case "long-run average" `Quick test_reward_long_run_average;
          Alcotest.test_case "transition rate" `Quick test_reward_transition_rate;
        ] );
      ( "evolution",
        [
          Alcotest.test_case "distribution_at" `Quick test_evolution_distribution_at;
          Alcotest.test_case "distance monotone" `Quick test_evolution_distance_monotone;
          Alcotest.test_case "settling time" `Quick test_evolution_settling_time;
        ] );
      ( "stat",
        [
          Alcotest.test_case "expectation/variance" `Quick test_expectation_variance;
          Alcotest.test_case "two-state autocorrelation" `Quick test_autocovariance_two_state;
          Alcotest.test_case "marginal" `Quick test_marginal;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_solvers_agree;
            prop_stationary_invariance;
            prop_hitting_times_one_step_consistent;
          ] );
    ]
