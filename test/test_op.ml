(* Tests for the operator-abstraction subsystem: the matrix-free Kronecker
   primitive (Sparse.Kron_op) against materialized products, the Cdr_op
   backends against the exact CSR kernels they wrap (bitwise), and the CDR
   factorization (Cdr.Kron_model) against the direct CSR model —
   transition-by-transition and through the stationary functionals. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
  !d

(* ---------- Kron_op vs the materialized product ---------- *)

let csr_factor_gen dim =
  let open QCheck2.Gen in
  let entry = pair (int_range 0 (dim - 1)) (float_range 0.1 1.0) in
  let* rows = list_repeat dim (list_size (int_range 1 3) entry) in
  let coo = Sparse.Coo.create ~rows:dim ~cols:dim in
  List.iteri
    (fun r entries -> List.iter (fun (c, v) -> Sparse.Coo.add coo ~row:r ~col:c v) entries)
    rows;
  return (Sparse.Coo.to_csr coo)

let kron_op_gen =
  let open QCheck2.Gen in
  let* dims = list_size (int_range 2 3) (int_range 2 4) in
  let* n_terms = int_range 1 3 in
  let* terms =
    list_repeat n_terms
      (let* coeff = float_range 0.25 2.0 in
       let* factors = flatten_l (List.map csr_factor_gen dims) in
       return (Sparse.Kron_op.term ~coeff factors))
  in
  return (Sparse.Kron_op.sum terms)

let test_vector n = Array.init n (fun i -> 1.0 +. (float_of_int i /. float_of_int n))

let prop_apply_matches_materialized =
  QCheck2.Test.make ~name:"apply = x * to_csr" ~count:100 kron_op_gen (fun op ->
      let n = Sparse.Kron_op.dim op in
      let x = test_vector n in
      let y = Sparse.Kron_op.apply op x in
      let expected = Sparse.Csr.vec_mul x (Sparse.Kron_op.to_csr op) in
      max_abs_diff y expected < 1e-12)

let prop_row_sums =
  QCheck2.Test.make ~name:"row_sums match to_csr" ~count:100 kron_op_gen (fun op ->
      max_abs_diff (Sparse.Kron_op.row_sums op) (Sparse.Csr.row_sums (Sparse.Kron_op.to_csr op))
      < 1e-12)

let prop_iter_row_sums_duplicates =
  QCheck2.Test.make ~name:"iter_row entries sum to the csr row" ~count:100 kron_op_gen
    (fun op ->
      let csr = Sparse.Kron_op.to_csr op in
      let n = Sparse.Kron_op.dim op in
      let ok = ref true in
      for i = 0 to n - 1 do
        let row = Array.make n 0.0 in
        Sparse.Kron_op.iter_row op i (fun j v -> row.(j) <- row.(j) +. v);
        for j = 0 to n - 1 do
          if Float.abs (row.(j) -. Sparse.Csr.get csr i j) > 1e-12 then ok := false
        done
      done;
      !ok)

(* Random 1- to 5-factor terms, optionally lifted by a leading factor, kept
   next to their (coeff, factors) lists so a test-local reference can
   enumerate rows without the operator's internals. *)
let kron_terms_gen =
  let open QCheck2.Gen in
  let* dims = list_size (int_range 1 5) (int_range 1 3) in
  let* n_terms = int_range 1 3 in
  let* terms =
    list_repeat n_terms
      (let* coeff = float_range 0.25 2.0 in
       let* factors = flatten_l (List.map csr_factor_gen dims) in
       return (coeff, factors))
  in
  let* lift = option ~ratio:0.5 (int_range 1 3 >>= csr_factor_gen) in
  let op =
    Sparse.Kron_op.sum (List.map (fun (coeff, fs) -> Sparse.Kron_op.term ~coeff fs) terms)
  in
  match lift with
  | None -> return (op, terms)
  | Some a ->
      return (Sparse.Kron_op.lift a op, List.map (fun (c, fs) -> (c, a :: fs)) terms)

(* The recursive enumeration [Kron_op.iter_row] replaced: per term, decode
   the row into factor rows, then walk the factors' row entries
   lexicographically, multiplying left to right from the coefficient. *)
let reference_row terms i emit =
  List.iter
    (fun (coeff, factors) ->
      let factors = Array.of_list factors in
      let dims = Array.map Sparse.Csr.rows factors in
      let k = Array.length dims in
      let idx = Array.make k 0 in
      let rem = ref i in
      for f = k - 1 downto 0 do
        idx.(f) <- !rem mod dims.(f);
        rem := !rem / dims.(f)
      done;
      let rec go f col acc =
        if f = k then emit col acc
        else
          Sparse.Csr.iter_row factors.(f) idx.(f) (fun j v ->
              go (f + 1) ((col * dims.(f)) + j) (acc *. v))
      in
      go 0 0 coeff)
    terms

let prop_iter_row_matches_reference =
  QCheck2.Test.make ~name:"iter_row emits the reference (column, value bits) sequence"
    ~count:200 kron_terms_gen (fun (op, terms) ->
      let entries emit_row =
        let acc = ref [] in
        emit_row (fun j v -> acc := (j, Int64.bits_of_float v) :: !acc);
        List.rev !acc
      in
      let ok = ref true in
      for i = 0 to Sparse.Kron_op.dim op - 1 do
        if entries (Sparse.Kron_op.iter_row op i) <> entries (reference_row terms i) then
          ok := false
      done;
      !ok)

let test_sum_validation () =
  check_bool "empty sum rejected" true
    (try
       ignore (Sparse.Kron_op.sum []);
       false
     with Invalid_argument _ -> true);
  let a = Sparse.Kron_op.term [ Sparse.Csr.identity 2; Sparse.Csr.identity 3 ] in
  let b = Sparse.Kron_op.term [ Sparse.Csr.identity 7 ] in
  check_bool "dimension mismatch rejected" true
    (try
       ignore (Sparse.Kron_op.sum [ a; b ]);
       false
     with Invalid_argument _ -> true);
  check_int "terms concatenate" 2 (Sparse.Kron_op.n_terms (Sparse.Kron_op.sum [ a; a ]))

(* The served kron solves run through Cdr_op.Kron_backend: power iteration
   on an independent product of two symmetric two-state chains converges to
   the (uniform) product of their stationary vectors, and a sub-stochastic
   term is refused by the row-sum check before any solve. *)
let two_state p =
  Sparse.Csr.of_dense
    (Linalg.Mat.of_arrays [| [| 1.0 -. p; p |]; [| p; 1.0 -. p |] |])

let test_kron_backend_stationary () =
  let op = Cdr_op.Kron_backend.create (Sparse.Kron_op.term [ two_state 0.3; two_state 0.2 ]) in
  let sol = Markov.Power.solve_op ~tol:1e-13 op in
  check_bool "converged" true sol.Markov.Solution.converged;
  Array.iter
    (fun v -> check_bool "uniform" true (Float.abs (v -. 0.25) < 1e-10))
    sol.Markov.Solution.pi

let test_kron_backend_rejects_substochastic () =
  let half = Sparse.Csr.map (fun v -> 0.9 *. v) (Sparse.Csr.identity 2) in
  let op = Cdr_op.Kron_backend.create (Sparse.Kron_op.term [ two_state 0.3; half ]) in
  match Cdr_op.check_stochastic op with
  | Ok () -> Alcotest.fail "sub-stochastic Kronecker term accepted"
  | Error msg -> check_bool "error names a row" true (String.length msg > 0)

(* dims 24^3 = 13824: big enough that every middle contraction crosses the
   pooling threshold, covering both the l-block and the r-chunk dispatch *)
let big_random_op () =
  let rng = Random.State.make [| 7; 2026 |] in
  let factor dim =
    let coo = Sparse.Coo.create ~rows:dim ~cols:dim in
    for r = 0 to dim - 1 do
      for _ = 1 to 3 do
        Sparse.Coo.add coo ~row:r ~col:(Random.State.int rng dim)
          (0.1 +. Random.State.float rng 1.0)
      done
    done;
    Sparse.Coo.to_csr coo
  in
  Sparse.Kron_op.sum
    [
      Sparse.Kron_op.term ~coeff:0.75 [ factor 24; factor 24; factor 24 ];
      Sparse.Kron_op.term [ factor 24; factor 24; factor 24 ];
    ]

let test_pooled_apply_bitwise () =
  let op = big_random_op () in
  let n = Sparse.Kron_op.dim op in
  let x = test_vector n in
  let ws = Sparse.Kron_op.workspace op in
  let serial = Array.make n 0.0 in
  Sparse.Kron_op.apply_into op ~ws x serial;
  (* workspace reuse: a second serial apply reproduces the first bitwise *)
  let again = Array.make n 0.0 in
  Sparse.Kron_op.apply_into op ~ws x again;
  check_bool "workspace reuse is bitwise stable" true (bits_equal serial again);
  List.iter
    (fun jobs ->
      Cdr_par.Pool.with_pool ~jobs (fun pool ->
          let y = Array.make n 0.0 in
          Sparse.Kron_op.apply_into ~pool op ~ws x y;
          check_bool
            (Printf.sprintf "jobs=%d bitwise equals serial" jobs)
            true (bits_equal serial y)))
    [ 1; 2; 4 ]

(* ---------- Cdr_op backends vs the exact CSR kernels ---------- *)

let small_chain_cfg =
  Cdr.Config.create_exn
    {
      Cdr.Config.default with
      Cdr.Config.grid_points = 32;
      n_phases = 8;
      counter_length = 3;
      max_run = 4;
      nw_max_atoms = 17;
    }

let test_csr_backend_bitwise () =
  let model = Cdr.Model.build small_chain_cfg in
  let tpm = Markov.Chain.tpm model.Cdr.Model.chain in
  let op = Cdr.Model.operator model in
  let n = Cdr_op.dim op in
  check_int "dim" (Markov.Chain.n_states model.Cdr.Model.chain) n;
  check_bool "kind" true (Cdr_op.kind op = `Csr);
  let x = test_vector n in
  let y = Array.make n 0.0 and y' = Array.make n 0.0 in
  Cdr_op.vec_mul_into op x y;
  Sparse.Csr.vec_mul_into x tpm y';
  check_bool "vec_mul_into bitwise" true (bits_equal y y');
  check_bool "row_sums bitwise" true (bits_equal (Cdr_op.row_sums op) (Sparse.Csr.row_sums tpm))

let test_power_solve_delegates_bitwise () =
  let model = Cdr.Model.build small_chain_cfg in
  let chain = model.Cdr.Model.chain in
  let via_chain = Markov.Power.solve ~tol:1e-10 chain in
  let via_op =
    Markov.Power.solve_op ~tol:1e-10 (Cdr_op.Csr_backend.create (Markov.Chain.tpm chain))
  in
  check_bool "pi bitwise" true
    (bits_equal via_chain.Markov.Solution.pi via_op.Markov.Solution.pi);
  check_int "iterations" via_chain.Markov.Solution.iterations via_op.Markov.Solution.iterations

let test_check_stochastic () =
  let model = Cdr.Model.build small_chain_cfg in
  (match Cdr_op.check_stochastic (Cdr.Model.operator model) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "CDR chain reported non-stochastic: %s" msg);
  let broken = Cdr_op.Csr_backend.create (Sparse.Csr.identity 4) in
  (match Cdr_op.check_stochastic broken with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "identity is stochastic");
  let half = Sparse.Csr.map (fun v -> v /. 2.0) (Sparse.Csr.identity 4) in
  match Cdr_op.check_stochastic (Cdr_op.Csr_backend.create half) with
  | Ok () -> Alcotest.fail "half rows accepted"
  | Error msg -> check_bool "error names a row" true (String.length msg > 0)

(* ---------- Cdr.Kron_model vs the direct CSR model ---------- *)

(* sigma_w well above the default so the slip rate is far from the solver
   floor and relative comparisons are meaningful *)
let kron_cfg =
  Cdr.Config.create_exn
    {
      Cdr.Config.default with
      Cdr.Config.grid_points = 16;
      n_phases = 8;
      counter_length = 3;
      max_run = 4;
      nw_max_atoms = 17;
      sigma_w = 0.12;
    }

let test_kron_model_structure () =
  let km = Cdr.Kron_model.build kron_cfg in
  check_int "full product space" (8 * 5 * 16) (Cdr.Kron_model.n_states km);
  (* codes round-trip through the packing *)
  for i = 0 to Cdr.Kron_model.n_states km - 1 do
    match
      Cdr.Kron_model.index_of km ~data:(Cdr.Kron_model.data_code km i)
        ~counter:(Cdr.Kron_model.counter_code km i) ~phase:(Cdr.Kron_model.phase_bin km i)
    with
    | Some j when j = i -> ()
    | _ -> Alcotest.failf "code roundtrip failed at %d" i
  done

let test_kron_model_matches_direct () =
  let km = Cdr.Kron_model.build kron_cfg in
  let full = Cdr_op.to_csr (Cdr.Kron_model.operator km) in
  let model = Cdr.Model.build kron_cfg in
  let tpm = Markov.Chain.tpm model.Cdr.Model.chain in
  for r = 0 to model.Cdr.Model.n_states - 1 do
    let fi =
      match
        Cdr.Kron_model.index_of km ~data:(model.Cdr.Model.data_code r)
          ~counter:(model.Cdr.Model.counter_code r) ~phase:(model.Cdr.Model.phase_bin r)
      with
      | Some fi -> fi
      | None -> Alcotest.failf "reachable state %d has no full-space index" r
    in
    (* factorized row on the full space = direct row on the reachable set *)
    Sparse.Csr.iter_row full fi (fun fj v ->
        match
          model.Cdr.Model.index_of
            ~data:(Cdr.Kron_model.data_code km fj)
            ~counter:(Cdr.Kron_model.counter_code km fj)
            ~phase:(Cdr.Kron_model.phase_bin km fj)
        with
        | None ->
            if Float.abs v > 1e-15 then
              Alcotest.failf "row %d: mass %g on unreachable successor %d" r v fj
        | Some r' ->
            if Float.abs (v -. Sparse.Csr.get tpm r r') > 1e-12 then
              Alcotest.failf "row %d: %g <> %g" r v (Sparse.Csr.get tpm r r'));
    Sparse.Csr.iter_row tpm r (fun r' v ->
        let fj =
          match
            Cdr.Kron_model.index_of km ~data:(model.Cdr.Model.data_code r')
              ~counter:(model.Cdr.Model.counter_code r')
              ~phase:(model.Cdr.Model.phase_bin r')
          with
          | Some fj -> fj
          | None -> Alcotest.failf "reachable state %d has no full-space index" r'
        in
        if Float.abs (v -. Sparse.Csr.get full fi fj) > 1e-12 then
          Alcotest.failf "row %d: direct %g missing from factorization" r v)
  done

let test_kron_model_stationary_parity () =
  let km = Cdr.Kron_model.build kron_cfg in
  let model = Cdr.Model.build kron_cfg in
  let sol_k = Cdr.Kron_model.solve ~solver:`Power km in
  let sol_c = Cdr.Model.solve ~solver:`Power model in
  check_bool "kron power converged" true sol_k.Markov.Solution.converged;
  let rho_k = Cdr.Kron_model.phase_marginal km ~pi:sol_k.Markov.Solution.pi in
  let rho_c = Cdr.Model.phase_marginal model ~pi:sol_c.Markov.Solution.pi in
  check_bool "phase marginals agree" true (max_abs_diff rho_k rho_c < 1e-8);
  let ber_k = Cdr.Ber.of_marginal kron_cfg ~rho:rho_k in
  let ber_c = Cdr.Ber.of_marginal kron_cfg ~rho:rho_c in
  check_bool "BER agrees" true (Float.abs (ber_k -. ber_c) /. Float.max ber_c 1e-300 < 1e-6);
  let slip_k = Cdr.Kron_model.slip_rate km ~pi:sol_k.Markov.Solution.pi in
  let slip_c = Cdr.Cycle_slip.rate model ~pi:sol_c.Markov.Solution.pi in
  check_bool "slip rate agrees" true
    (Float.abs (slip_k -. slip_c) /. Float.max slip_c 1e-300 < 1e-6);
  let mtbs = Cdr.Kron_model.mean_time_between_slips km ~pi:sol_k.Markov.Solution.pi in
  check_bool "mtbs is 1/rate" true (Float.abs ((1.0 /. mtbs) -. slip_k) < 1e-15)

let test_kron_model_solvers_agree () =
  (* grid 32: 1280 full states, above the direct-solve cutoff, so the IAD
     multigrid path really aggregates *)
  let cfg =
    Cdr.Config.create_exn
      {
        Cdr.Config.default with
        Cdr.Config.grid_points = 32;
        n_phases = 8;
        counter_length = 3;
        max_run = 4;
        nw_max_atoms = 17;
        sigma_w = 0.12;
      }
  in
  let km = Cdr.Kron_model.build cfg in
  check_bool "hierarchy is non-trivial" true (Cdr.Kron_model.hierarchy km <> []);
  let power = Cdr.Kron_model.solve ~solver:`Power km in
  let mg = Cdr.Kron_model.solve ~solver:`Multigrid km in
  check_bool "multigrid converged" true mg.Markov.Solution.converged;
  let rho s = Cdr.Kron_model.phase_marginal km ~pi:s.Markov.Solution.pi in
  check_bool "multigrid matches power" true (max_abs_diff (rho mg) (rho power) < 1e-8)

let () =
  Alcotest.run "op"
    [
      ( "kron-op",
        Alcotest.test_case "sum validation" `Quick test_sum_validation
        :: Alcotest.test_case "pooled apply bitwise" `Quick test_pooled_apply_bitwise
        :: Alcotest.test_case "stationary" `Quick test_kron_backend_stationary
        :: Alcotest.test_case "rejects non-stochastic" `Quick test_kron_backend_rejects_substochastic
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_apply_matches_materialized; prop_row_sums;
               prop_iter_row_sums_duplicates; prop_iter_row_matches_reference;
             ] );
      ( "backends",
        [
          Alcotest.test_case "csr backend bitwise" `Quick test_csr_backend_bitwise;
          Alcotest.test_case "power delegates bitwise" `Quick test_power_solve_delegates_bitwise;
          Alcotest.test_case "check_stochastic" `Quick test_check_stochastic;
        ] );
      ( "kron-model",
        [
          Alcotest.test_case "structure" `Quick test_kron_model_structure;
          Alcotest.test_case "matches direct model" `Quick test_kron_model_matches_direct;
          Alcotest.test_case "stationary parity" `Quick test_kron_model_stationary_parity;
          Alcotest.test_case "solvers agree matrix-free" `Quick test_kron_model_solvers_agree;
        ] );
    ]
