(* Tests for the setup/solve split and the warm-started continuation sweeps
   (PR 3): Csr.refill / same_pattern against fresh constructions, bitwise
   reuse of one Multigrid.setup across chains sharing a pattern,
   Model.rebuild equivalence with a from-scratch build, solver-cache
   hit/miss accounting (both per-cache and through the metrics registry),
   and agreement of warm-started sweeps with cold ones. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

(* a small, noisy configuration: fast to build, BER far from underflow *)
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

(* ---------- Csr.refill / same_pattern ---------- *)

let test_csr_refill () =
  let n = 7 in
  let dense f =
    let d = Linalg.Mat.create ~rows:n ~cols:n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if (i + j) mod 3 = 0 then Linalg.Mat.set d i j (f i j)
      done
    done;
    d
  in
  let a = Sparse.Csr.of_dense (dense (fun i j -> float_of_int ((i * n) + j + 1))) in
  let fresh = Sparse.Csr.of_dense (dense (fun i j -> 2.0 *. float_of_int ((i * n) + j + 1))) in
  let refilled = Sparse.Csr.refill a (Array.map (fun v -> 2.0 *. v) a.Sparse.Csr.values) in
  check_bool "refill equals fresh of_dense" true (Sparse.Csr.equal ~tol:0.0 refilled fresh);
  check_bool "refill shares the pattern" true (Sparse.Csr.same_pattern a refilled);
  check_bool "refill shares row_ptr physically" true
    (a.Sparse.Csr.row_ptr == refilled.Sparse.Csr.row_ptr);
  check_bool "structurally equal strangers share a pattern" true
    (Sparse.Csr.same_pattern a fresh);
  check_bool "different structures do not" false
    (Sparse.Csr.same_pattern a (Sparse.Csr.identity n));
  Alcotest.check_raises "wrong length rejected"
    (Invalid_argument "Csr.refill: values length must equal nnz") (fun () ->
      ignore (Sparse.Csr.refill a [| 1.0 |]));
  Alcotest.check_raises "non-finite rejected"
    (Invalid_argument "Csr.refill: non-finite value") (fun () ->
      ignore (Sparse.Csr.refill a (Array.map (fun _ -> Float.nan) a.Sparse.Csr.values)))

(* ---------- Multigrid.setup reuse across same-pattern chains ---------- *)

let test_setup_reuse () =
  let model = Cdr.Model.build small in
  let chain = model.Cdr.Model.chain in
  let hierarchy = Cdr.Model.hierarchy model in
  let s = Markov.Multigrid.setup ~hierarchy chain in
  check_bool "setup matches its own chain" true (Markov.Multigrid.matches s chain);
  (* solve_with on a shared setup is bitwise the one-shot solve *)
  let sol_oneshot, stats_oneshot = Markov.Multigrid.solve ~tol:1e-11 ~hierarchy chain in
  let sol_with, stats_with = Markov.Multigrid.solve_with ~tol:1e-11 s chain in
  check_bool "solve_with bitwise equals solve" true
    (bits_equal sol_oneshot.Markov.Solution.pi sol_with.Markov.Solution.pi);
  check_int "same cycles" stats_oneshot.Markov.Multigrid.cycles stats_with.Markov.Multigrid.cycles;
  check_int "levels accessor" stats_with.Markov.Multigrid.levels (Markov.Multigrid.levels s);
  (* a second chain with the same pattern (noise parameters moved): the same
     setup must match in O(1) and reproduce a fresh solve bitwise *)
  let model2, reused = Cdr.Model.rebuild model { small with Cdr.Config.p01 = 0.45; p10 = 0.45 } in
  check_bool "rebuild reused the pattern" true reused;
  let chain2 = model2.Cdr.Model.chain in
  check_bool "setup matches the refilled chain" true (Markov.Multigrid.matches s chain2);
  let sol2_fresh, _ = Markov.Multigrid.solve ~tol:1e-11 ~hierarchy chain2 in
  let sol2_reused, _ = Markov.Multigrid.solve_with ~tol:1e-11 s chain2 in
  check_bool "reused setup bitwise equals fresh solve on second chain" true
    (bits_equal sol2_fresh.Markov.Solution.pi sol2_reused.Markov.Solution.pi);
  (* a chain with another structure is rejected *)
  let other = Cdr.Model.build { small with Cdr.Config.counter_length = 4 } in
  check_bool "different structure does not match" false
    (Markov.Multigrid.matches s other.Cdr.Model.chain);
  check_bool "solve_with rejects a mismatched chain" true
    (match Markov.Multigrid.solve_with s other.Cdr.Model.chain with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- Model.rebuild ---------- *)

let test_model_rebuild () =
  let model = Cdr.Model.build small in
  (* noise-only change on the same pattern: bitwise the from-scratch build *)
  let cfg' = { small with Cdr.Config.p01 = 0.45; p10 = 0.45 } in
  let rebuilt, reused = Cdr.Model.rebuild model cfg' in
  check_bool "pattern reused" true reused;
  let fresh = Cdr.Model.build cfg' in
  let tr = Markov.Chain.tpm rebuilt.Cdr.Model.chain in
  let tf = Markov.Chain.tpm fresh.Cdr.Model.chain in
  check_bool "same pattern as fresh build" true (Sparse.Csr.same_pattern tr tf);
  check_bool "bitwise same values as fresh build" true
    (bits_equal tr.Sparse.Csr.values tf.Sparse.Csr.values);
  check_bool "pattern shared physically with the old chain" true
    (tr.Sparse.Csr.row_ptr == (Markov.Chain.tpm model.Cdr.Model.chain).Sparse.Csr.row_ptr);
  (* a state-space change falls back to the full build *)
  let cfg_k = { small with Cdr.Config.counter_length = 5 } in
  let rebuilt_k, reused_k = Cdr.Model.rebuild model cfg_k in
  check_bool "state-space change is a fresh build" false reused_k;
  check_int "fallback state count" (Cdr.Model.build cfg_k).Cdr.Model.n_states
    rebuilt_k.Cdr.Model.n_states

(* ---------- Solver_cache ---------- *)

let test_solver_cache () =
  Cdr_obs.Metrics.reset ();
  let cache = Cdr.Solver_cache.create () in
  let model = Cdr.Model.build small in
  let hierarchy () = Cdr.Model.hierarchy model in
  let s1 = Cdr.Solver_cache.setup cache ~hierarchy model.Cdr.Model.chain in
  check_int "first lookup misses" 1 (Cdr.Solver_cache.misses cache);
  let s2 = Cdr.Solver_cache.setup cache ~hierarchy model.Cdr.Model.chain in
  check_int "second lookup hits" 1 (Cdr.Solver_cache.hits cache);
  check_bool "hit returns the same setup" true (s1 == s2);
  (* a refilled chain (same structure, new values) hits *)
  let model2, _ = Cdr.Model.rebuild model { small with Cdr.Config.p01 = 0.48; p10 = 0.48 } in
  let s3 = Cdr.Solver_cache.setup cache ~hierarchy model2.Cdr.Model.chain in
  check_bool "refilled chain hits" true (s1 == s3);
  check_int "hits after refill" 2 (Cdr.Solver_cache.hits cache);
  (* a different structure misses and is inserted *)
  let other = Cdr.Model.build { small with Cdr.Config.counter_length = 4 } in
  ignore
    (Cdr.Solver_cache.setup cache
       ~hierarchy:(fun () -> Cdr.Model.hierarchy other)
       other.Cdr.Model.chain);
  check_int "new structure misses" 2 (Cdr.Solver_cache.misses cache);
  check_int "two structures cached" 2 (Cdr.Solver_cache.length cache);
  (* the global registry saw the same counts *)
  let counter name =
    List.fold_left
      (fun acc (s : Cdr_obs.Metrics.series) ->
        match s.Cdr_obs.Metrics.kind with
        | Cdr_obs.Metrics.Counter n when s.Cdr_obs.Metrics.name = name -> acc + n
        | _ -> acc)
      0 (Cdr_obs.Metrics.dump ())
  in
  check_int "metrics hits" 2 (counter "solver_cache.hits");
  check_int "metrics misses" 2 (counter "solver_cache.misses")

(* ---------- warm vs cold sweeps ---------- *)

let sigmas = [ 0.06; 0.07; 0.08; 0.09; 0.11 ]

let bers points = List.map (fun p -> p.Cdr.Sweep.report.Cdr.Report.ber) points

let warm = Cdr.Context.make ~strategy:Cdr.Context.warm ()

let test_warm_matches_cold () =
  let cold_points = Cdr.Sweep.sigma_w_values small sigmas in
  let warm_points = Cdr.Sweep.sigma_w_values ~ctx:warm small sigmas in
  check_int "same number of points" (List.length cold_points) (List.length warm_points);
  List.iter2
    (fun c w ->
      check_bool "same config order" true
        (c.Cdr.Sweep.config.Cdr.Config.sigma_w = w.Cdr.Sweep.config.Cdr.Config.sigma_w);
      let bc = c.Cdr.Sweep.report.Cdr.Report.ber
      and bw = w.Cdr.Sweep.report.Cdr.Report.ber in
      let rel = abs_float (bc -. bw) /. Float.max bc 1e-300 in
      if rel > 1e-6 then
        Alcotest.failf "warm BER diverges at sigma %g: cold %.17e warm %.17e (rel %g)"
          c.Cdr.Sweep.config.Cdr.Config.sigma_w bc bw rel)
    cold_points warm_points;
  (* determinism: the warm continuation reproduces itself bitwise *)
  let warm_again = Cdr.Sweep.sigma_w_values ~ctx:warm small sigmas in
  check_bool "warm sweep is deterministic" true
    (List.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       (bers warm_points) (bers warm_again))

let test_setup_reuse_is_bitwise_cold () =
  (* structure caching alone (no warm start) must not change a single bit:
     the symbolic phase carries no values. The continuation always warm-
     starts, so this walks its other half by hand: in-place rebuilds and one
     setup cache across the points, every solve from the default start. *)
  let cache = Cdr.Solver_cache.create () in
  let ctx = Cdr.Context.make ~cache () in
  let prev = ref None in
  let cached_bers =
    List.map
      (fun sigma ->
        let config = Cdr.Config.create_exn { small with Cdr.Config.sigma_w = sigma } in
        let model =
          match !prev with
          | Some m -> fst (Cdr.Model.rebuild m config)
          | None -> Cdr.Model.build config
        in
        prev := Some model;
        (fst (Cdr.Report.run_model ~ctx (Cdr.Report.Csr model))).Cdr.Report.ber)
      sigmas
  in
  let cold_bers =
    List.map
      (fun sigma -> (Cdr.Report.run { small with Cdr.Config.sigma_w = sigma }).Cdr.Report.ber)
      sigmas
  in
  check_bool "a later point reused a cached setup" true (Cdr.Solver_cache.hits cache >= 1);
  check_bool "cache-only sweep bitwise equals cold" true
    (List.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       cold_bers cached_bers)

let test_warm_under_pool () =
  (* chunked continuation under a pool: same points, same order, still within
     tolerance of cold, and fewer than one structure miss per point *)
  Cdr_obs.Metrics.reset ();
  let cold_points = Cdr.Sweep.sigma_w_values small sigmas in
  let warm_points =
    Cdr_par.Pool.with_pool ~jobs:2 (fun pool ->
        Cdr.Sweep.sigma_w_values
          ~ctx:(Cdr.Context.make ~pool ~strategy:Cdr.Context.warm ())
          small sigmas)
  in
  List.iter2
    (fun c w ->
      let bc = c.Cdr.Sweep.report.Cdr.Report.ber
      and bw = w.Cdr.Sweep.report.Cdr.Report.ber in
      check_bool "pooled warm point within tolerance" true
        (abs_float (bc -. bw) /. Float.max bc 1e-300 <= 1e-6))
    cold_points warm_points;
  (* counter sweeps warm-start too: every length is its own structure, so
     the cache cannot hit across points, but results must still agree *)
  let lengths = [ 2; 3; 4 ] in
  let cold_k = Cdr.Sweep.counter_lengths small lengths in
  let warm_k = Cdr.Sweep.counter_lengths ~ctx:warm small lengths in
  List.iter2
    (fun c w ->
      check_int "counter order preserved" c.Cdr.Sweep.config.Cdr.Config.counter_length
        w.Cdr.Sweep.config.Cdr.Config.counter_length;
      let bc = c.Cdr.Sweep.report.Cdr.Report.ber
      and bw = w.Cdr.Sweep.report.Cdr.Report.ber in
      check_bool "warm counter point within tolerance" true
        (abs_float (bc -. bw) /. Float.max bc 1e-300 <= 1e-6))
    cold_k warm_k

(* ---------- setup memory ---------- *)

(* a chain large enough for a three-level hierarchy above the GTH level *)
let mg_model = lazy (Cdr.Model.build { small with Cdr.Config.grid_points = 64 })

let mg_setup () =
  let m = Lazy.force mg_model in
  (m, Markov.Multigrid.setup ~hierarchy:(Cdr.Model.hierarchy m) m.Cdr.Model.chain)

(* Every Bigarray reachable from [v], each counted once: the off-heap bytes
   that Obj.reachable_words does not see. *)
let bigarray_payload v =
  let seen = ref [] and bytes = ref 0 in
  let rec walk o =
    if Obj.is_block o && not (List.memq o !seen) then begin
      seen := o :: !seen;
      let tag = Obj.tag o in
      if tag = Obj.custom_tag then
        bytes := !bytes + Bigarray.Genarray.size_in_bytes (Obj.obj o : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Genarray.t)
      else if tag < Obj.no_scan_tag then
        for i = 0 to Obj.size o - 1 do
          walk (Obj.field o i)
        done
    end
  in
  walk (Obj.repr v);
  !bytes

let test_setup_bytes_accounting () =
  let _, s = mg_setup () in
  check_bool "a multi-level setup" true (Markov.Multigrid.levels s >= 3);
  let measured = (8 * Obj.reachable_words (Obj.repr s)) + bigarray_payload s in
  let accounted = Markov.Multigrid.setup_bytes s in
  (* the only slack: empty arrays share one static atom, which the
     accounting charges per array *)
  if abs (measured - accounted) > 64 then
    Alcotest.failf "setup_bytes %d, measured %d" accounted measured

(* The major-heap words allocated so far, promotions included. The runtime
   updates the count only at minor collections, so one is forced first: a
   solve that allocates too little to trigger one would otherwise read 0,
   and the next would be charged for both. *)
let flushed_major_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.major_words

let test_solve_allocation () =
  let m, s = mg_setup () in
  let chain = m.Cdr.Model.chain in
  let major_words cycles =
    let before = flushed_major_words () in
    let _, stats = Markov.Multigrid.solve_with ~tol:0.0 ~max_cycles:cycles s chain in
    check_int "ran every cycle" cycles stats.Markov.Multigrid.cycles;
    flushed_major_words () -. before
  in
  ignore (major_words 1);
  let w2 = major_words 2 and w50 = major_words 50 in
  (* the per-solve scratch (dense coarsest matrix, exit masses, residual
     vector) and the returned solution, allocated once however many cycles;
     the slack absorbs the runtime's lazily updated counters, while one
     dense coarsest matrix per cycle would multiply the count by ~25 *)
  if w50 > 1.5 *. w2 then
    Alcotest.failf "major words grow with cycles: %.0f for 2 cycles, %.0f for 50" w2 w50

(* [Multigrid.cycle] runs one cycle per call, counted in the caller's
   scratch, and moves the same bits as a one-cycle [solve_with] (whose
   solution is renormalized in l1). *)
let test_cycle_counts_in_scratch () =
  let m, s = mg_setup () in
  let chain = m.Cdr.Model.chain in
  let scratch = Markov.Multigrid.scratch s in
  let x = Markov.Chain.uniform chain in
  for _ = 1 to 3 do
    Markov.Multigrid.cycle scratch s chain x
  done;
  check_int "three cycles counted" 3 (Markov.Multigrid.scratch_cycles scratch);
  let one = Markov.Chain.uniform chain in
  Markov.Multigrid.cycle scratch s chain one;
  Linalg.Vec.normalize_l1 one;
  let sol, _ =
    Markov.Multigrid.solve_with ~tol:0.0 ~max_cycles:1 ~init:(Markov.Chain.uniform chain) s chain
  in
  check_bool "cycle = one-cycle solve_with" true (bits_equal one sol.Markov.Solution.pi)

(* Major-heap words one warm matrix-free IAD solve allocates, and its outer
   cycle count. *)
let kron_major_words m ~tol =
  let ctx = Cdr.Context.make ~tol () in
  let before = flushed_major_words () in
  let sol = Cdr.Kron_model.solve ~solver:`Multigrid ~ctx m in
  (flushed_major_words () -. before, sol.Markov.Solution.iterations)

(* Each outer IAD cycle refills the coarse chain in place and runs one
   coarse V-cycle in the setup's own scratch, so the solve's major-heap
   words stay flat as cycles are added: a per-cycle coarse chain copy,
   restriction vector or dense coarsest matrix would cost thousands of
   words per extra cycle on this chain, and more on larger ones. *)
let test_kron_solve_allocation () =
  let m = Cdr.Kron_model.build (Cdr.Config.create_exn small) in
  (* the first solve builds the setup, the coarse pattern and its scratch *)
  ignore (kron_major_words m ~tol:1e-12);
  let w_loose, c_loose = kron_major_words m ~tol:1e-6 in
  let w_tight, c_tight = kron_major_words m ~tol:1e-12 in
  check_bool "the tighter tolerance runs more cycles" true (c_tight > c_loose);
  let per_cycle = (w_tight -. w_loose) /. float_of_int (c_tight - c_loose) in
  if per_cycle > 256.0 then
    Alcotest.failf "%.0f major words per extra outer cycle (%d cycles: %.0f, %d: %.0f)" per_cycle
      c_loose w_loose c_tight w_tight

(* The default grid: a warm solve allocates its solution and little else. *)
let test_kron_default_grid_allocation () =
  let m = Cdr.Kron_model.build Cdr.Config.default in
  ignore (kron_major_words m ~tol:1e-12);
  let words, cycles = kron_major_words m ~tol:1e-12 in
  let bytes = 8.0 *. words in
  if bytes > 16e6 then
    Alcotest.failf "a warm default-grid kron solve allocated %.1f MB of major heap in %d cycles"
      (bytes /. 1e6) cycles

(* Minor-heap words of [f ()]. *)
let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

(* The CSR V-cycle allocates per level (telemetry labels, phase closures),
   never per state: a boxed block weight per coarse row would cost two
   words per state per cycle, over 15,000 words per cycle on this
   7,630-state chain. *)
let test_vcycle_minor_words () =
  let m = Cdr.Model.build { Cdr.Config.default with Cdr.Config.grid_points = 64; max_run = 4 } in
  let chain = m.Cdr.Model.chain in
  let s = Markov.Multigrid.setup ~hierarchy:(Cdr.Model.hierarchy m) chain in
  let words cycles =
    fst
      (minor_words (fun () ->
           Markov.Multigrid.solve_with ~tol:0.0 ~max_cycles:cycles s chain))
  in
  ignore (words 1);
  let per_cycle = (words 12 -. words 2) /. 10.0 in
  let bound = 512.0 *. float_of_int (Markov.Multigrid.levels s) in
  if per_cycle > bound then
    Alcotest.failf "%.0f minor words per extra V-cycle on %d states (bound %.0f)" per_cycle
      m.Cdr.Model.n_states bound

(* One matrix-free apply allocates a fixed handful of words, the same at
   1,280 and at 30,720 states: no closure or boxed float per entry. *)
let test_kron_apply_minor_words () =
  let apply_words cfg =
    let k = (Cdr.Kron_model.build cfg).Cdr.Kron_model.kron in
    let n = Sparse.Kron_op.dim k in
    let ws = Sparse.Kron_op.workspace k in
    let x = Array.make n (1.0 /. float_of_int n) and y = Array.make n 0.0 in
    Sparse.Kron_op.apply_into k ~ws x y;
    fst (minor_words (fun () -> Sparse.Kron_op.apply_into k ~ws x y))
  in
  let small_words = apply_words (Cdr.Config.create_exn small)
  and default_words = apply_words Cdr.Config.default in
  if small_words <> default_words || default_words > 64.0 then
    Alcotest.failf "one apply: %.0f minor words at 1,280 states, %.0f at 30,720" small_words
      default_words

(* A warm IAD solve's outer cycle refills the coarse chain from the
   solve's entry table and runs one coarse V-cycle: its minor-heap words
   stay far below one per fine state (enumerating the operator's rows
   every cycle, through closures and boxed floats, would cost about 113). *)
let test_kron_minor_words_per_cycle () =
  let m = Cdr.Kron_model.build { Cdr.Config.default with Cdr.Config.grid_points = 64 } in
  let solve tol =
    minor_words (fun () ->
        (Cdr.Kron_model.solve ~solver:`Multigrid ~ctx:(Cdr.Context.make ~tol ()) m)
          .Markov.Solution.iterations)
  in
  ignore (solve 1e-12);
  let w_loose, c_loose = solve 1e-6 in
  let w_tight, c_tight = solve 1e-12 in
  check_bool "the tighter tolerance runs more cycles" true (c_tight > c_loose);
  let per_cycle = (w_tight -. w_loose) /. float_of_int (c_tight - c_loose) in
  let per_state = per_cycle /. float_of_int m.Cdr.Kron_model.n_states in
  if per_state > 0.25 then
    Alcotest.failf "%.3f minor words per fine state per extra outer cycle" per_state

(* Each solve enumerates the operator's rows exactly once, into the
   setup's entry table (12 B per entry), however many cycles it runs. *)
let test_one_row_pass_per_solve () =
  let m = Cdr.Kron_model.build (Cdr.Config.create_exn small) in
  match Cdr.Kron_model.hierarchy m with
  | [] -> Alcotest.fail "test model unexpectedly fits a direct solve"
  | partition :: coarse_hierarchy ->
      let op = m.Cdr.Kron_model.op in
      let s = Markov.Op_multigrid.prepare ~coarse_hierarchy ~partition op in
      List.iter
        (fun tol ->
          let _, stats = Markov.Op_multigrid.solve_with ~tol s op in
          check_bool "several cycles" true (stats.Markov.Op_multigrid.cycles > 1);
          check_int "one row pass" 1 stats.Markov.Op_multigrid.row_passes;
          check_int "table bytes" (12 * Cdr_op.nnz_estimate op)
            stats.Markov.Op_multigrid.table_bytes)
        [ 1e-6; 1e-12 ]

let () =
  Alcotest.run "cdr_warm"
    [
      ( "pattern",
        [
          Alcotest.test_case "csr refill / same_pattern" `Quick test_csr_refill;
          Alcotest.test_case "multigrid setup reuse" `Quick test_setup_reuse;
          Alcotest.test_case "model rebuild" `Quick test_model_rebuild;
        ] );
      ( "cache",
        [ Alcotest.test_case "solver cache hits and misses" `Quick test_solver_cache ] );
      ( "memory",
        [
          Alcotest.test_case "setup_bytes = reachable words + bigarrays" `Quick
            test_setup_bytes_accounting;
          Alcotest.test_case "solve allocation independent of cycles" `Quick
            test_solve_allocation;
          Alcotest.test_case "cycle counts in its scratch" `Quick test_cycle_counts_in_scratch;
          Alcotest.test_case "kron IAD allocation independent of cycles" `Quick
            test_kron_solve_allocation;
          Alcotest.test_case "warm default-grid kron solve under 16 MB" `Slow
            test_kron_default_grid_allocation;
          Alcotest.test_case "V-cycle minor words per level, not per state" `Quick
            test_vcycle_minor_words;
          Alcotest.test_case "kron apply minor words independent of states" `Quick
            test_kron_apply_minor_words;
          Alcotest.test_case "kron IAD minor words per cycle under 0.25 per state" `Quick
            test_kron_minor_words_per_cycle;
          Alcotest.test_case "one row pass per IAD solve" `Quick test_one_row_pass_per_solve;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "warm matches cold" `Quick test_warm_matches_cold;
          Alcotest.test_case "cache-only is bitwise cold" `Quick test_setup_reuse_is_bitwise_cold;
          Alcotest.test_case "warm under a pool" `Quick test_warm_under_pool;
        ] );
    ]
