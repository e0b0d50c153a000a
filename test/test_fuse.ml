(* Tests for the pooled execution of the V-cycle: every V-cycle solve under
   a pool (one-pass aggregation, restriction as a copy of the block weights)
   must be bitwise identical to the serial no-pool solve at every job count;
   the reusable Op_multigrid/Kron_model IAD setups must change no bits; and
   the committed golden digests pin the stationary vectors. *)

let check_bool = Alcotest.(check bool)

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

(* small enough to solve in milliseconds, large enough for a 4-level
   hierarchy and multi-slot kernels *)
let cfg = { Cdr.Config.default with Cdr.Config.grid_points = 64; max_run = 4 }

let model = lazy (Cdr.Model.build cfg)

let chain () = (Lazy.force model).Cdr.Model.chain

let hierarchy () = Cdr.Model.hierarchy (Lazy.force model)

(* ---------- pooled V-cycles vs the serial reference ---------- *)

let solve_mg pool =
  let chain = chain () in
  let s = Markov.Multigrid.setup ~hierarchy:(hierarchy ()) chain in
  let sol, _ = Markov.Multigrid.solve_with ~tol:1e-10 ?pool s chain in
  sol.Markov.Solution.pi

let pooled jobs solve = Cdr_par.Pool.with_pool ~jobs (fun pool -> solve (Some pool))

let test_pooled_bitwise_lex () =
  let reference = solve_mg None in
  check_bool "lex: jobs=1 = serial" true (bits_equal reference (pooled 1 solve_mg));
  check_bool "lex: jobs=4 = serial" true (bits_equal reference (pooled 4 solve_mg))

let test_w_cycle () =
  let chain = chain () in
  let s = Markov.Multigrid.setup ~hierarchy:(hierarchy ()) chain in
  let solve pool =
    let sol, _ = Markov.Multigrid.solve_with ~tol:1e-10 ~cycle:`W ?pool s chain in
    sol.Markov.Solution.pi
  in
  let reference = solve None in
  check_bool "W-cycle solve is stationary" true (Markov.Chain.residual chain reference < 1e-10);
  check_bool "W: jobs=4 = serial" true (bits_equal reference (pooled 4 solve))

(* ---------- golden fixture: stationary-vector bits ---------- *)

(* MD5 of the 64-bit patterns of every entry, in order: two vectors share a
   digest only if they are bitwise equal *)
let pi_digest pi =
  let b = Buffer.create (16 * Array.length pi) in
  Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%016Lx" (Int64.bits_of_float x))) pi;
  Digest.to_hex (Digest.string (Buffer.contents b))

let kron_cfg =
  Cdr.Config.create_exn
    {
      Cdr.Config.default with
      Cdr.Config.grid_points = 32;
      n_phases = 8;
      counter_length = 3;
      max_run = 4;
      nw_max_atoms = 17;
      sigma_w = 0.08;
    }

(* the fixed configurations of fixtures/golden_pi.jsonl: the default grid
   (7 levels), plain Gauss-Seidel, W-cycles, and the
   matrix-free IAD path, which runs one coarse Multigrid.cycle per outer
   cycle (test_kron_matches_csr checks that row against the CSR answer);
   each returns the stationary vector and, through Report, the BER *)
let golden_runs =
  let report ?solver ctx cfg =
    let r, sol = Cdr.Report.run_model ?solver ~ctx (Cdr.Report.build ctx cfg) in
    (sol.Markov.Solution.pi, Some r.Cdr.Report.ber)
  in
  [
    ("csr-default", fun () -> report Cdr.Context.default Cdr.Config.default);
    ("csr-grid64-gauss-seidel", fun () -> report ~solver:`Gauss_seidel Cdr.Context.default cfg);
    ( "csr-grid64-w",
      fun () ->
        let sol, _ = Markov.Multigrid.solve ~cycle:`W ~hierarchy:(hierarchy ()) (chain ()) in
        (sol.Markov.Solution.pi, None) );
    ("kron-grid32", fun () -> report (Cdr.Context.make ~backend:`Kron ()) kron_cfg);
  ]

let test_golden_pi () =
  let fixtures =
    In_channel.with_open_text "fixtures/golden_pi.jsonl" In_channel.input_lines
    |> List.map Cdr_obs.Jsonl.of_string
  in
  Alcotest.(check int) "one fixture per run" (List.length golden_runs) (List.length fixtures);
  List.iter
    (fun fx ->
      let field k = Option.bind (Cdr_obs.Jsonl.member k fx) Cdr_obs.Jsonl.to_str in
      let name = Option.get (field "name") in
      let pi, ber = (List.assoc name golden_runs) () in
      Alcotest.(check string) (name ^ ": pi digest") (Option.get (field "pi_md5")) (pi_digest pi);
      match (field "ber_bits", ber) with
      | Some bits, Some b ->
          Alcotest.(check string) (name ^ ": BER bits") bits
            (Printf.sprintf "%016Lx" (Int64.bits_of_float b))
      | None, None -> ()
      | _ -> Alcotest.failf "%s: fixture and run disagree on carrying a BER" name)
    fixtures

(* The guard behind the kron-grid32 digest, which pins the bits of one
   algorithm: whatever the matrix-free IAD cycle does, its pi must be the
   CSR model's pi. Restricted to the CSR model's reachable states (mapped
   through the shared (data, counter, phase) key) the two agree within 1e-9
   in l1, the states the CSR model never reaches hold under 1e-12 of the
   mass, and the BERs agree within 1e-9 relative. *)
let test_kron_matches_csr () =
  let run backend =
    let ctx = Cdr.Context.make ~backend () in
    let model = Cdr.Report.build ctx kron_cfg in
    let r, sol = Cdr.Report.run_model ~ctx model in
    (model, sol.Markov.Solution.pi, r.Cdr.Report.ber)
  in
  match (run `Csr, run `Kron) with
  | (Cdr.Report.Csr m, csr_pi, csr_ber), (Cdr.Report.Kron k, kron_pi, kron_ber) ->
      let kron_index i =
        (((m.Cdr.Model.data_code i * k.Cdr.Kron_model.n_counter) + m.Cdr.Model.counter_code i)
         * k.Cdr.Kron_model.m)
        + m.Cdr.Model.phase_bin i
      in
      let reached = Array.make (Array.length kron_pi) false in
      let dist = ref 0.0 in
      Array.iteri
        (fun i p ->
          let j = kron_index i in
          reached.(j) <- true;
          dist := !dist +. Float.abs (p -. kron_pi.(j)))
        csr_pi;
      let unreached = ref 0.0 in
      Array.iteri (fun j p -> if not reached.(j) then unreached := !unreached +. p) kron_pi;
      if !dist > 1e-9 then Alcotest.failf "kron pi differs from csr pi by %.3e (l1)" !dist;
      if !unreached >= 1e-12 then
        Alcotest.failf "unreached states hold %.3e of the kron mass" !unreached;
      let rel = Float.abs (kron_ber -. csr_ber) /. csr_ber in
      if rel > 1e-9 then Alcotest.failf "kron BER %g vs csr %g (relative %.3e)" kron_ber csr_ber rel
  | _ -> Alcotest.fail "Report.build ignored the backend"

(* ---------- reusable IAD setups ---------- *)

(* On a CSR operator and on the kron operator: a prepared solve equals a
   fresh one, reusing the setup changes no bits, and neither does the size
   of a pool whose team really crosses domains. *)
let test_iad_setup_reuse () =
  let csr = (Cdr_op.Csr_backend.create (Markov.Chain.tpm (chain ())), hierarchy ()) in
  let kron =
    let km = Cdr.Kron_model.build kron_cfg in
    (km.Cdr.Kron_model.op, Cdr.Kron_model.hierarchy km)
  in
  List.iter
    (fun (name, (op, hierarchy)) ->
      match hierarchy with
      | [] -> Alcotest.failf "%s: test model unexpectedly fits a direct solve" name
      | partition :: coarse_hierarchy ->
          let check what a b =
            check_bool (name ^ ": " ^ what) true
              (bits_equal a.Markov.Solution.pi b.Markov.Solution.pi)
          in
          let fresh, _ = Markov.Op_multigrid.solve ~tol:1e-10 ~coarse_hierarchy ~partition op in
          let setup = Markov.Op_multigrid.prepare ~coarse_hierarchy ~partition op in
          check_bool "setup matches its operator" true (Markov.Op_multigrid.matches setup op);
          let first, stats = Markov.Op_multigrid.solve_with ~tol:1e-10 setup op in
          let second, _ = Markov.Op_multigrid.solve_with ~tol:1e-10 setup op in
          (* counted by the coarse scratch the V-cycles ran in *)
          check_bool (name ^ ": one coarse V-cycle per outer cycle") true
            (stats.Markov.Op_multigrid.cycles > 0
            && stats.Markov.Op_multigrid.coarse_cycles = stats.Markov.Op_multigrid.cycles);
          check "prepared solve = fresh solve" fresh first;
          check "setup reuse changes no bits" first second;
          (* a CSR apply under a pool runs the slot grid, without one a
             single row loop: pools of every size agree with each other *)
          let pooled jobs =
            Cdr_par.Pool.with_pool ~jobs (fun pool ->
                fst (Markov.Op_multigrid.solve_with ~tol:1e-10 ~pool setup op))
          in
          check "IAD jobs=4 = jobs=1" (pooled 1) (pooled 4))
    [ ("csr", csr); ("kron", kron) ]

let test_kron_iad_memo () =
  let kcfg =
    Cdr.Config.create_exn
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
  let m = Cdr.Kron_model.build kcfg in
  let ctx = Cdr.Context.make ~tol:1e-9 () in
  let first = Cdr.Kron_model.solve ~solver:`Multigrid ~ctx m in
  check_bool "first multigrid solve memoizes the IAD setup" true (m.Cdr.Kron_model.iad <> None);
  let second = Cdr.Kron_model.solve ~solver:`Multigrid ~ctx m in
  check_bool "memoized IAD solve changes no bits" true
    (bits_equal first.Markov.Solution.pi second.Markov.Solution.pi)

(* The engine carries a model's IAD setup over to the next model of the
   same dimension. From sigma_w 0.06 to 0.07 the operator gains entries
   (detector decisions that underflowed to 0 become positive), so the
   solve meets entries outside the carried coarse pattern and assembles a
   new one from its entry table; from 0.07 back to 0.06 the wider pattern
   is kept, with explicit zeros. Either way the stationary vector is
   bitwise the one a fresh setup gives. *)
let test_transplanted_iad () =
  let model sigma_w =
    let params =
      {
        Cdr_svc.Params.default with
        Cdr_svc.Params.grid = 32;
        phases = 16;
        counter = 2;
        sigma_w;
      }
    in
    Cdr.Kron_model.build (Result.get_ok (Cdr_svc.Params.to_config params))
  in
  let solve m = (Cdr.Kron_model.solve ~solver:`Multigrid m).Markov.Solution.pi in
  let narrow = model 0.06 and wide = model 0.07 in
  check_bool "0.07 emits more entries than 0.06" true
    (Sparse.Kron_op.nnz_bound wide.Cdr.Kron_model.kron
    > Sparse.Kron_op.nnz_bound narrow.Cdr.Kron_model.kron);
  List.iter
    (fun (name, from_, to_) ->
      ignore (solve from_);
      let transplanted = model to_ in
      transplanted.Cdr.Kron_model.iad <- from_.Cdr.Kron_model.iad;
      check_bool (name ^ ": transplanted = fresh") true
        (bits_equal (solve (model to_)) (solve transplanted)))
    [ ("0.06 -> 0.07", narrow, 0.07); ("0.07 -> 0.06", wide, 0.06) ]

let () =
  Alcotest.run "fuse"
    [
      ( "fused V-cycles",
        [
          Alcotest.test_case "lex jobs=4 = serial" `Quick test_pooled_bitwise_lex;
          Alcotest.test_case "W stationary, jobs=4 = serial" `Quick test_w_cycle;
        ] );
      ( "golden",
        [
          Alcotest.test_case "kron pi and BER match csr on the kron row's config" `Quick
            test_kron_matches_csr;
          Alcotest.test_case "stationary bits match the committed digests" `Slow test_golden_pi;
        ] );
      ( "reusable IAD",
        [
          Alcotest.test_case "op_multigrid setup reuse bitwise" `Quick test_iad_setup_reuse;
          Alcotest.test_case "kron model memoizes its setup" `Quick test_kron_iad_memo;
          Alcotest.test_case "transplanted setup = fresh, both directions" `Quick
            test_transplanted_iad;
        ] );
    ]
