(* Tests for the parallel V-cycle interior and the flat-state model assembly:
   colored-smoother fixed points agree with lexicographic ones to solver
   tolerance, the pooled assembly kernels (CSR value fill, rebuild row
   refill) are bitwise deterministic at jobs=1 vs jobs=4, and the flat
   assembly path is pinned bit for bit against fixtures/golden_chain.jsonl,
   digests recorded from the retired hashtable-and-COO construction. The
   pooled V-cycle solves are pinned against the serial one in test_fuse. *)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

(* small enough to solve in milliseconds, large enough for a 4-level
   hierarchy and multi-slot pooled kernels *)
let cfg = { Cdr.Config.default with Cdr.Config.grid_points = 64; max_run = 4 }

let model = lazy (Cdr.Model.build cfg)

let chain () = (Lazy.force model).Cdr.Model.chain

let hierarchy () = Cdr.Model.hierarchy (Lazy.force model)

(* ---------- colored smoother: correctness ---------- *)

let test_colored_vs_lex_fixed_point () =
  let chain = chain () in
  let hierarchy = hierarchy () in
  let lex = Markov.Multigrid.setup ~hierarchy chain in
  let colored = Markov.Multigrid.setup ~smoother:`Colored ~hierarchy chain in
  check_bool "setup remembers lex" true (Markov.Multigrid.smoother lex = `Lex);
  check_bool "setup remembers colored" true (Markov.Multigrid.smoother colored = `Colored);
  let sol_lex, _ = Markov.Multigrid.solve_with ~tol:1e-11 lex chain in
  let sol_col, _ = Markov.Multigrid.solve_with ~tol:1e-11 colored chain in
  (* both are stationary to tolerance... *)
  check_bool "lex residual small" true (Markov.Chain.residual chain sol_lex.Markov.Solution.pi < 1e-10);
  check_bool "colored residual small" true
    (Markov.Chain.residual chain sol_col.Markov.Solution.pi < 1e-10);
  (* ...and agree with each other far below any physical quantity of
     interest; they need NOT agree bitwise (color-major sweep order differs
     from lexicographic), which is exactly why `Lex stays the default. *)
  let dist = ref 0.0 in
  Array.iteri
    (fun i p -> dist := !dist +. abs_float (p -. sol_col.Markov.Solution.pi.(i)))
    sol_lex.Markov.Solution.pi;
  check_bool "L1 distance below 1e-9" true (!dist < 1e-9)

(* ---------- flat assembly: pinned against the golden digests ---------- *)

let csr_of m = Markov.Chain.tpm m.Cdr.Model.chain

(* MD5 of [f i] for i = 0 .. n-1, each followed by a comma *)
let digest n f =
  let b = Buffer.create (16 * n) in
  for i = 0 to n - 1 do
    Buffer.add_string b (f i);
    Buffer.add_char b ','
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let ints_digest a = digest (Array.length a) (fun i -> string_of_int a.(i))

(* the fixed configurations of fixtures/golden_chain.jsonl *)
let golden_configs = [ ("grid64-maxrun4", cfg); ("default", Cdr.Config.default) ]

let test_flat_equals_reference () =
  let fixtures =
    In_channel.with_open_text "fixtures/golden_chain.jsonl" In_channel.input_lines
    |> List.map Cdr_obs.Jsonl.of_string
  in
  check_int "one fixture per config" (List.length golden_configs) (List.length fixtures);
  List.iter
    (fun fx ->
      let get conv k = Option.get (Option.bind (Cdr_obs.Jsonl.member k fx) conv) in
      let field = get Cdr_obs.Jsonl.to_str in
      let name = field "name" in
      let m = Cdr.Model.build_direct (List.assoc name golden_configs) in
      let a = csr_of m in
      let check what expected actual =
        Alcotest.(check string) (name ^ ": " ^ what) expected actual
      in
      check_int (name ^ ": state count")
        (int_of_float (get Cdr_obs.Jsonl.to_float "states"))
        m.Cdr.Model.n_states;
      check "row_ptr" (field "row_ptr_md5") (ints_digest a.Sparse.Csr.row_ptr);
      check "col_idx" (field "col_idx_md5") (ints_digest a.Sparse.Csr.col_idx);
      check "values bits" (field "values_md5")
        (digest (Array.length a.Sparse.Csr.values) (fun k ->
             Int64.to_string (Int64.bits_of_float a.Sparse.Csr.values.(k))));
      (* same state enumeration order, not just the same matrix *)
      check "state decode" (field "states_md5")
        (digest m.Cdr.Model.n_states (fun i ->
             Printf.sprintf "%d/%d/%d" (m.Cdr.Model.data_code i) (m.Cdr.Model.counter_code i)
               (m.Cdr.Model.phase_bin i))))
    fixtures

let test_value_fill_bitwise_across_jobs () =
  let serial = csr_of (Cdr.Model.build_direct cfg) in
  let p1 =
    Cdr_par.Pool.with_pool ~jobs:1 (fun pool -> csr_of (Cdr.Model.build_direct ~pool cfg))
  in
  let p4 =
    Cdr_par.Pool.with_pool ~jobs:4 (fun pool -> csr_of (Cdr.Model.build_direct ~pool cfg))
  in
  check_bool "value fill: serial = pooled jobs=1" true
    (bits_equal serial.Sparse.Csr.values p1.Sparse.Csr.values);
  check_bool "value fill: pooled jobs=1 = jobs=4" true
    (bits_equal p1.Sparse.Csr.values p4.Sparse.Csr.values)

let test_rebuild_bitwise_across_jobs () =
  let base = Lazy.force model in
  let cfg' = { cfg with Cdr.Config.sigma_w = cfg.Cdr.Config.sigma_w +. 1e-4 } in
  let serial, reused = Cdr.Model.rebuild base cfg' in
  check_bool "pattern reused" true reused;
  let p4, reused4 =
    Cdr_par.Pool.with_pool ~jobs:4 (fun pool -> Cdr.Model.rebuild ~pool base cfg')
  in
  check_bool "pattern reused under pool" true reused4;
  check_bool "rebuild row refill: serial = pooled jobs=4" true
    (bits_equal (csr_of serial).Sparse.Csr.values (csr_of p4).Sparse.Csr.values)

let () =
  Alcotest.run "mg_par"
    [
      ( "colored smoother",
        [
          Alcotest.test_case "fixed point agrees with lex" `Quick test_colored_vs_lex_fixed_point;
        ] );
      ( "flat assembly",
        [
          Alcotest.test_case "bitwise equal to reference path" `Quick test_flat_equals_reference;
          Alcotest.test_case "value fill bitwise across jobs" `Quick
            test_value_fill_bitwise_across_jobs;
          Alcotest.test_case "rebuild refill bitwise across jobs" `Quick
            test_rebuild_bitwise_across_jobs;
        ] );
    ]
