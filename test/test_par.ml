(* Tests for the Cdr_par domain-pool subsystem: pool combinator semantics
   (order preservation, chunking edge cases, nesting, exceptions), bitwise
   determinism of the parallel sparse kernels and solvers at jobs=1 vs
   jobs=4, parallel sweep determinism, and domain-safety hammers for the
   Cdr_obs metrics registry and JSONL sinks. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* bitwise float-array equality: determinism means the same bits, not "close" *)
let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

(* ---------- Pool combinators ---------- *)

let test_parallel_map_order () =
  Cdr_par.Pool.with_pool ~jobs:4 @@ fun pool ->
  let input = Array.init 257 (fun i -> i) in
  let out = Cdr_par.Pool.parallel_map pool (fun i -> i * i) input in
  Alcotest.(check (array int)) "order preserved" (Array.map (fun i -> i * i) input) out;
  check_int "empty map" 0 (Array.length (Cdr_par.Pool.parallel_map pool (fun i -> i) [||]));
  Alcotest.(check (list int))
    "list map order" [ 0; 2; 4; 6; 8 ]
    (Cdr_par.Pool.map_list pool (fun i -> 2 * i) [ 0; 1; 2; 3; 4 ])

let test_parallel_for_edges () =
  Cdr_par.Pool.with_pool ~jobs:4 @@ fun pool ->
  (* empty range *)
  Cdr_par.Pool.parallel_for pool 0 (fun _ -> Alcotest.fail "f called on empty range");
  (* range smaller than the pool / jobs > elements *)
  let hits = Array.make 3 0 in
  Cdr_par.Pool.parallel_for pool 3 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (array int)) "each index exactly once" [| 1; 1; 1 |] hits;
  (* explicit chunk of 1, more chunks than workers *)
  let hits = Array.make 19 0 in
  Cdr_par.Pool.parallel_for pool ~chunk:1 19 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (array int)) "chunk=1 covers all" (Array.make 19 1) hits;
  check_int "jobs" 4 (Cdr_par.Pool.jobs pool)

let test_pool_nesting_and_exceptions () =
  Cdr_par.Pool.with_pool ~jobs:4 @@ fun pool ->
  (* a nested batch on the same pool degrades to serial instead of deadlocking *)
  let out = Array.make 16 0 in
  Cdr_par.Pool.parallel_for pool 4 (fun i ->
      Cdr_par.Pool.parallel_for pool 4 (fun j -> out.((4 * i) + j) <- (4 * i) + j));
  Alcotest.(check (array int)) "nested batches complete" (Array.init 16 Fun.id) out;
  (* slot exceptions surface in the caller, and the pool still works after *)
  (match Cdr_par.Pool.parallel_for pool 8 (fun i -> if i = 5 then failwith "slot 5") with
  | () -> Alcotest.fail "expected the slot exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "slot exception" "slot 5" msg);
  let hits = Array.make 8 0 in
  Cdr_par.Pool.parallel_for pool 8 (fun i -> hits.(i) <- 1);
  Alcotest.(check (array int)) "pool usable after exception" (Array.make 8 1) hits

let test_default_jobs_env () =
  let with_env v f =
    let old = Sys.getenv_opt "CDR_JOBS" in
    Unix.putenv "CDR_JOBS" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "CDR_JOBS" (Option.value ~default:"" old)) f
  in
  with_env "3" (fun () -> check_int "CDR_JOBS=3" 3 (Cdr_par.Pool.default_jobs ()));
  with_env "0" (fun () ->
      check_int "CDR_JOBS=0 falls back" (Domain.recommended_domain_count ())
        (Cdr_par.Pool.default_jobs ()));
  with_env "junk" (fun () ->
      check_int "malformed falls back" (Domain.recommended_domain_count ())
        (Cdr_par.Pool.default_jobs ()))

(* ---------- parallel sparse kernels ---------- *)

(* a deterministic pseudo-random row-stochastic CSR large enough (nnz over
   the parallel threshold) that the pooled kernels actually split into slots *)
let synthetic_chain_csr n =
  let state = ref 123456789 in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let per_row = 8 in
  let row_ptr = Array.init (n + 1) (fun i -> i * per_row) in
  let col_idx = Array.make (n * per_row) 0 in
  let values = Array.make (n * per_row) 0.0 in
  for i = 0 to n - 1 do
    (* distinct sorted columns: a window of 8 starting at a random offset *)
    let start = rand (n - per_row) in
    let weights = Array.init per_row (fun _ -> float_of_int (1 + rand 100)) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    for k = 0 to per_row - 1 do
      col_idx.((i * per_row) + k) <- start + k;
      values.((i * per_row) + k) <- weights.(k) /. total
    done
  done;
  Sparse.Csr.unsafe_make ~rows:n ~cols:n ~row_ptr ~col_idx ~values

let test_csr_kernels_deterministic () =
  let n = 3000 in
  let m = synthetic_chain_csr n in
  check_bool "matrix exceeds the parallel threshold" true (Sparse.Csr.nnz m >= 16384);
  let x = Array.init n (fun i -> 1.0 /. float_of_int (i + 7)) in
  let pooled jobs f = Cdr_par.Pool.with_pool ~jobs f in
  let vm1 = pooled 1 (fun pool -> Sparse.Csr.vec_mul ~pool x m) in
  let vm4 = pooled 4 (fun pool -> Sparse.Csr.vec_mul ~pool x m) in
  check_bool "vec_mul jobs=4 == jobs=1 (bits)" true (bits_equal vm1 vm4);
  (* the pooled partial-merge grouping differs from the serial scatter only
     in float association: same values up to roundoff *)
  let serial_vm = Sparse.Csr.vec_mul x m in
  Array.iteri
    (fun j v ->
      if Float.abs (v -. serial_vm.(j)) > 1e-15 *. (1.0 +. Float.abs serial_vm.(j)) then
        Alcotest.failf "vec_mul pooled vs serial at %d: %.17g vs %.17g" j v serial_vm.(j))
    vm1

let test_power_solve_deterministic () =
  let chain = Markov.Chain.of_csr (synthetic_chain_csr 3000) in
  let solve jobs =
    Cdr_par.Pool.with_pool ~jobs @@ fun pool ->
    Markov.Power.solve ~tol:1e-10 ~max_iter:300 ~pool chain
  in
  let s1 = solve 1 and s4 = solve 4 in
  check_int "same iteration count" s1.Markov.Solution.iterations s4.Markov.Solution.iterations;
  check_bool "stationary vector bits equal" true
    (bits_equal s1.Markov.Solution.pi s4.Markov.Solution.pi)

(* ---------- parallel sweeps ---------- *)

let sweep_base =
  {
    Cdr.Config.default with
    Cdr.Config.grid_points = 32;
    n_phases = 8;
    max_run = 4;
    nw_max_atoms = 17;
    sigma_w = 0.08;
  }

let test_sweep_deterministic () =
  let lengths = [ 2; 3; 4; 5 ] in
  let run jobs =
    Cdr_par.Pool.with_pool ~jobs @@ fun pool ->
    Cdr.Sweep.counter_lengths ~ctx:(Cdr.Context.make ~pool ()) sweep_base lengths
  in
  let p1 = run 1 and p4 = run 4 in
  check_int "same point count" (List.length p1) (List.length p4);
  List.iter2
    (fun a b ->
      check_int "order: counter" a.Cdr.Sweep.config.Cdr.Config.counter_length
        b.Cdr.Sweep.config.Cdr.Config.counter_length;
      check_bool "BER bits equal" true
        (Int64.bits_of_float a.Cdr.Sweep.report.Cdr.Report.ber
        = Int64.bits_of_float b.Cdr.Sweep.report.Cdr.Report.ber);
      check_int "size equal" a.Cdr.Sweep.report.Cdr.Report.size b.Cdr.Sweep.report.Cdr.Report.size;
      check_int "iterations equal" a.Cdr.Sweep.report.Cdr.Report.iterations
        b.Cdr.Sweep.report.Cdr.Report.iterations;
      check_bool "density bits equal" true
        (bits_equal a.Cdr.Sweep.report.Cdr.Report.phase_density
           b.Cdr.Sweep.report.Cdr.Report.phase_density))
    p1 p4;
  (* the lengths arrive back in request order *)
  Alcotest.(check (list int))
    "request order" lengths
    (List.map (fun p -> p.Cdr.Sweep.config.Cdr.Config.counter_length) p4)

let test_optimal_of_points () =
  let points = Cdr.Sweep.counter_lengths sweep_base [ 2; 3; 4 ] in
  let k, ber = Cdr.Sweep.optimal_of_points points in
  let best =
    List.fold_left
      (fun acc p -> Float.min acc p.Cdr.Sweep.report.Cdr.Report.ber)
      Float.infinity points
  in
  check_bool "optimal BER is the minimum" true (ber = best);
  check_bool "optimal k is one of the candidates" true (List.mem k [ 2; 3; 4 ]);
  (match Cdr.Sweep.optimal_of_points [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "optimal_of_points [] must raise")

(* ---------- Cdr_obs domain safety ---------- *)

let test_metrics_hammer () =
  Cdr_obs.Metrics.reset ();
  let domains = 4 and per_domain = 25_000 in
  let worker () =
    for i = 1 to per_domain do
      Cdr_obs.Metrics.incr "par.hammer";
      if i mod 100 = 0 then Cdr_obs.Metrics.observe "par.hammer.obs" (float_of_int i)
    done
  in
  let spawned = Array.init domains (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join spawned;
  let series = Cdr_obs.Metrics.dump () in
  let counter =
    List.find_map
      (fun s ->
        match (s.Cdr_obs.Metrics.name, s.Cdr_obs.Metrics.kind) with
        | "par.hammer", Cdr_obs.Metrics.Counter n -> Some n
        | _ -> None)
      series
  in
  check_int "no lost increments" (domains * per_domain) (Option.get counter);
  let histogram_count =
    List.find_map
      (fun s ->
        match (s.Cdr_obs.Metrics.name, s.Cdr_obs.Metrics.kind) with
        | "par.hammer.obs", Cdr_obs.Metrics.Histogram h -> Some h.Cdr_obs.Metrics.count
        | _ -> None)
      series
  in
  check_int "no torn histogram updates" (domains * (per_domain / 100)) (Option.get histogram_count);
  Cdr_obs.Metrics.reset ()

let test_sink_hammer () =
  let path = Filename.temp_file "cdr_par_sink" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let _sink = Cdr_obs.Sink.install_file path in
  let domains = 4 and per_domain = 500 in
  let worker d () =
    for i = 1 to per_domain do
      Cdr_obs.Span.with_ ~name:(Printf.sprintf "hammer.d%d" d)
        ~attrs:[ ("i", string_of_int i) ]
        (fun () -> ())
    done
  in
  let spawned = Array.init domains (fun d -> Domain.spawn (worker d)) in
  Array.iter Domain.join spawned;
  Cdr_obs.Sink.close_all ();
  Cdr_obs.Span.reset ();
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       (* every line must be complete, parseable JSON: no torn writes *)
       (match Cdr_obs.Jsonl.of_string line with
       | Cdr_obs.Jsonl.Obj fields ->
           if not (List.mem_assoc "domain" fields) then
             Alcotest.fail "span event lacks a domain attribute"
       | _ -> Alcotest.fail "expected a JSON object per line");
       incr lines
     done
   with End_of_file -> close_in ic);
  check_int "one intact line per span" (domains * per_domain) !lines

let () =
  Alcotest.run "cdr_par"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map order" `Quick test_parallel_map_order;
          Alcotest.test_case "parallel_for edge cases" `Quick test_parallel_for_edges;
          Alcotest.test_case "nesting and exceptions" `Quick test_pool_nesting_and_exceptions;
          Alcotest.test_case "CDR_JOBS parsing" `Quick test_default_jobs_env;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "csr kernels bitwise deterministic" `Quick
            test_csr_kernels_deterministic;
          Alcotest.test_case "power solve bitwise deterministic" `Quick
            test_power_solve_deterministic;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 bitwise" `Quick test_sweep_deterministic;
          Alcotest.test_case "optimal_of_points" `Quick test_optimal_of_points;
        ] );
      ( "obs-domain-safety",
        [
          Alcotest.test_case "metrics hammer" `Quick test_metrics_hammer;
          Alcotest.test_case "sink hammer" `Quick test_sink_hammer;
        ] );
    ]
