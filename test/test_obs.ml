(* Tests for the Cdr_obs telemetry library: JSON encode/parse round-trips,
   log-scale histogram bucketing at exact boundaries, span nesting and
   ordering, convergence traces, JSONL sinks, and the Report.run iteration
   counts that are now derived from the trace. *)

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ---------- Jsonl ---------- *)

let rec json_equal a b =
  match (a, b) with
  | Cdr_obs.Jsonl.Null, Cdr_obs.Jsonl.Null -> true
  | Cdr_obs.Jsonl.Bool x, Cdr_obs.Jsonl.Bool y -> x = y
  | Cdr_obs.Jsonl.Num x, Cdr_obs.Jsonl.Num y -> x = y || Float.abs (x -. y) < 1e-12 *. Float.abs x
  | Cdr_obs.Jsonl.Str x, Cdr_obs.Jsonl.Str y -> x = y
  | Cdr_obs.Jsonl.List x, Cdr_obs.Jsonl.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Cdr_obs.Jsonl.Obj x, Cdr_obs.Jsonl.Obj y ->
      List.length x = List.length y
      && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2) x y
  | _ -> false

let test_jsonl_roundtrip () =
  let open Cdr_obs.Jsonl in
  let v =
    Obj
      [
        ("type", Str "span");
        ("ok", Bool true);
        ("nothing", Null);
        ("n", Num 42.0);
        ("pi", Num 3.14159);
        ("tiny", Num 2.5e-13);
        ("text", Str "line1\nline2 \"quoted\" back\\slash\ttab");
        ("list", List [ Num 1.0; Str "two"; Bool false; Null ]);
        ("nested", Obj [ ("k", List [ Obj [ ("deep", Num (-7.0)) ] ]) ]);
      ]
  in
  let s = to_string v in
  Alcotest.(check bool) "single line" false (String.contains s '\n');
  Alcotest.(check bool) "round-trip" true (json_equal v (of_string s))

let test_jsonl_encoding () =
  let open Cdr_obs.Jsonl in
  check_str "integral float" "42" (to_string (Num 42.0));
  check_str "negative integral" "-3" (to_string (Num (-3.0)));
  check_str "non-finite is null" "null" (to_string (Num Float.nan));
  check_str "infinite is null" "null" (to_string (Num Float.infinity));
  check_str "escapes" "\"a\\\"b\\\\c\\n\"" (to_string (Str "a\"b\\c\n"));
  (match of_string "\"\\u0041\\u00e9\"" with
  | Str s -> check_str "unicode escapes" "A\xc3\xa9" s
  | _ -> Alcotest.fail "expected string");
  (match of_string "  [1, 2.5e3, true, null]  " with
  | List [ Num a; Num b; Bool true; Null ] ->
      Alcotest.(check (float 0.0)) "1" 1.0 a;
      Alcotest.(check (float 0.0)) "2.5e3" 2500.0 b
  | _ -> Alcotest.fail "expected list");
  (match of_string "{\"a\": 1} trailing" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "trailing garbage must be rejected")

let test_jsonl_member () =
  let open Cdr_obs.Jsonl in
  let v = of_string "{\"name\":\"mg\",\"iter\":7}" in
  check_str "member str" "mg" (Option.get (Option.bind (member "name" v) to_str));
  Alcotest.(check (float 0.0))
    "member num" 7.0
    (Option.get (Option.bind (member "iter" v) to_float));
  Alcotest.(check bool) "missing member" true (member "absent" v = None)

(* ---------- Metrics: log-scale bucketing ---------- *)

let test_bucket_boundaries () =
  let b10 = Cdr_obs.Metrics.bucket_of ~base:10.0 in
  (* exact powers land in their own bucket: base^e <= v < base^(e+1) *)
  check_int "1.0 -> 0" 0 (b10 1.0);
  check_int "10 -> 1" 1 (b10 10.0);
  check_int "100 -> 2" 2 (b10 100.0);
  check_int "1000 -> 3" 3 (b10 1000.0);
  check_int "1e6 -> 6" 6 (b10 1e6);
  check_int "0.1 -> -1" (-1) (b10 0.1);
  check_int "0.01 -> -2" (-2) (b10 0.01);
  check_int "1e-12 -> -12" (-12) (b10 1e-12);
  (* interior values *)
  check_int "999.9 -> 2" 2 (b10 999.9);
  check_int "1000.1 -> 3" 3 (b10 1000.1);
  check_int "0.0999 -> -2" (-2) (b10 0.0999);
  (* non-positive / non-finite -> underflow bucket *)
  check_int "zero" min_int (b10 0.0);
  check_int "negative" min_int (b10 (-5.0));
  check_int "nan" min_int (b10 Float.nan);
  (* base 2 *)
  let b2 = Cdr_obs.Metrics.bucket_of ~base:2.0 in
  check_int "8 -> 3 (base 2)" 3 (b2 8.0);
  check_int "7.99 -> 2 (base 2)" 2 (b2 7.99);
  check_int "0.5 -> -1 (base 2)" (-1) (b2 0.5);
  (* bounds are consistent with bucket_of *)
  let lo, hi = Cdr_obs.Metrics.bucket_bounds ~base:10.0 3 in
  Alcotest.(check (float 1e-9)) "lower bound" 1000.0 lo;
  Alcotest.(check (float 1e-6)) "upper bound" 10000.0 hi

let test_metrics_registry () =
  Cdr_obs.Metrics.reset ();
  Cdr_obs.Metrics.incr "solves" ~labels:[ ("solver", "mg") ];
  Cdr_obs.Metrics.incr "solves" ~labels:[ ("solver", "mg") ];
  (* label order must not create a distinct series *)
  Cdr_obs.Metrics.add "builds" ~labels:[ ("a", "1"); ("b", "2") ] 3;
  Cdr_obs.Metrics.add "builds" ~labels:[ ("b", "2"); ("a", "1") ] 4;
  Cdr_obs.Metrics.set_gauge "residual" 1e-13;
  Cdr_obs.Metrics.observe "seconds" 0.5;
  Cdr_obs.Metrics.observe "seconds" 5.0;
  Cdr_obs.Metrics.observe "seconds" 5000.0;
  let find name =
    List.find (fun s -> s.Cdr_obs.Metrics.name = name) (Cdr_obs.Metrics.dump ())
  in
  (match (find "solves").Cdr_obs.Metrics.kind with
  | Cdr_obs.Metrics.Counter n -> check_int "counter" 2 n
  | _ -> Alcotest.fail "expected counter");
  (match (find "builds").Cdr_obs.Metrics.kind with
  | Cdr_obs.Metrics.Counter n -> check_int "label order merged" 7 n
  | _ -> Alcotest.fail "expected counter");
  (match (find "seconds").Cdr_obs.Metrics.kind with
  | Cdr_obs.Metrics.Histogram h ->
      check_int "histogram count" 3 h.Cdr_obs.Metrics.count;
      check_int "bucket -1" 1 (Hashtbl.find h.Cdr_obs.Metrics.buckets (-1));
      check_int "bucket 0" 1 (Hashtbl.find h.Cdr_obs.Metrics.buckets 0);
      check_int "bucket 3" 1 (Hashtbl.find h.Cdr_obs.Metrics.buckets 3);
      Alcotest.(check (float 1e-9)) "min" 0.5 h.Cdr_obs.Metrics.min_v;
      Alcotest.(check (float 1e-9)) "max" 5000.0 h.Cdr_obs.Metrics.max_v
  | _ -> Alcotest.fail "expected histogram");
  Cdr_obs.Metrics.reset ();
  check_int "reset empties registry" 0 (List.length (Cdr_obs.Metrics.dump ()))

(* Quantile estimates from the log-bucketed histogram, validated against the
   exact quantiles of the raw sample. Because the estimate interpolates inside
   the bucket that contains the exact order statistic, the two can never
   disagree by more than one bucket ratio (here base 2). *)
let test_metrics_quantiles () =
  Cdr_obs.Metrics.reset ();
  Fun.protect ~finally:Cdr_obs.Metrics.reset @@ fun () ->
  (* deterministic multiplicative-congruential sample spanning ~3 decades *)
  let n = 500 in
  let state = ref 123457 in
  let rand () =
    state := (1103515245 * !state + 12345) land 0x3FFFFFFF;
    float_of_int !state /. float_of_int 0x3FFFFFFF
  in
  let samples = Array.init n (fun _ -> 1e-3 *. (1000.0 ** rand ())) in
  Array.iter (fun v -> Cdr_obs.Metrics.observe ~base:2.0 "q.latency" v) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let exact q =
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(min (n - 1) (max 0 k))
  in
  List.iter
    (fun q ->
      let est =
        match Cdr_obs.Metrics.quantile_of "q.latency" q with
        | Some v -> v
        | None -> Alcotest.fail "series missing"
      in
      let ex = exact q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f within one base-2 bucket of exact" q)
        true
        (est >= ex /. 2.0 && est <= ex *. 2.0))
    [ 0.0; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ];
  (* estimates are clamped to the observed range *)
  (match Cdr_obs.Metrics.quantile_of "q.latency" 0.0 with
  | Some v -> Alcotest.(check (float 1e-12)) "q=0 is the min" sorted.(0) v
  | None -> Alcotest.fail "series missing");
  (match Cdr_obs.Metrics.quantile_of "q.latency" 1.0 with
  | Some v -> Alcotest.(check (float 1e-12)) "q=1 is the max" sorted.(n - 1) v
  | None -> Alcotest.fail "series missing");
  (* a single observation answers every quantile exactly *)
  Cdr_obs.Metrics.observe ~base:2.0 "q.single" 5.0;
  List.iter
    (fun q ->
      match Cdr_obs.Metrics.quantile_of "q.single" q with
      | Some v -> Alcotest.(check (float 1e-12)) "single sample" 5.0 v
      | None -> Alcotest.fail "series missing")
    [ 0.0; 0.5; 1.0 ];
  (* non-positive values land in the underflow bucket and report min_v *)
  List.iter (Cdr_obs.Metrics.observe ~base:2.0 "q.under") [ -1.0; 0.0; 3.0 ];
  (match Cdr_obs.Metrics.quantile_of "q.under" 0.1 with
  | Some v -> Alcotest.(check (float 1e-12)) "underflow reports min" (-1.0) v
  | None -> Alcotest.fail "series missing");
  (* unknown series and counters have no quantiles *)
  Cdr_obs.Metrics.incr "q.counter";
  check_bool "missing series" true (Cdr_obs.Metrics.quantile_of "q.absent" 0.5 = None);
  check_bool "counter has no quantiles" true
    (Cdr_obs.Metrics.quantile_of "q.counter" 0.5 = None);
  (* an empty histogram record answers nan *)
  let empty =
    {
      Cdr_obs.Metrics.count = 0;
      sum = 0.0;
      min_v = Float.infinity;
      max_v = Float.neg_infinity;
      base = 10.0;
      buckets = Hashtbl.create 1;
    }
  in
  check_bool "empty histogram is nan" true
    (Float.is_nan (Cdr_obs.Metrics.quantile empty 0.5))

(* ---------- Spans ---------- *)

let test_span_nesting () =
  Cdr_obs.Span.reset ();
  Cdr_obs.Span.set_forced true;
  Fun.protect ~finally:(fun () ->
      Cdr_obs.Span.set_forced false;
      Cdr_obs.Span.reset ())
  @@ fun () ->
  let r =
    Cdr_obs.Span.with_ ~name:"outer" (fun () ->
        Cdr_obs.Span.with_ ~name:"a" (fun () -> ());
        Cdr_obs.Span.with_ ~name:"b" ~attrs:[ ("k", "v") ] (fun () ->
            Cdr_obs.Span.with_ ~name:"b1" (fun () -> ()));
        17)
  in
  check_int "with_ returns f ()" 17 r;
  match Cdr_obs.Span.roots () with
  | [ outer ] ->
      check_str "root name" "outer" outer.Cdr_obs.Span.name;
      check_int "two children" 2 (List.length outer.Cdr_obs.Span.children);
      let names = List.map (fun s -> s.Cdr_obs.Span.name) outer.Cdr_obs.Span.children in
      Alcotest.(check (list string)) "children in start order" [ "a"; "b" ] names;
      let b = List.nth outer.Cdr_obs.Span.children 1 in
      check_str "attrs preserved" "v" (List.assoc "k" b.Cdr_obs.Span.attrs);
      (match b.Cdr_obs.Span.children with
      | [ b1 ] -> check_str "grandchild" "b1" b1.Cdr_obs.Span.name
      | _ -> Alcotest.fail "expected one grandchild");
      Alcotest.(check bool) "durations set" true (outer.Cdr_obs.Span.dur >= 0.0)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_span_disabled_and_exceptions () =
  Cdr_obs.Span.reset ();
  (* recording off: with_ is transparent and retains nothing *)
  check_int "transparent when off" 5 (Cdr_obs.Span.with_ ~name:"x" (fun () -> 5));
  check_int "nothing retained" 0 (List.length (Cdr_obs.Span.roots ()));
  (* timed still times when recording is off *)
  let v, dt = Cdr_obs.Span.timed ~name:"t" (fun () -> 9) in
  check_int "timed value" 9 v;
  Alcotest.(check bool) "timed elapsed >= 0" true (dt >= 0.0);
  (* spans close on exceptions, so later spans still nest correctly *)
  Cdr_obs.Span.set_forced true;
  Fun.protect ~finally:(fun () ->
      Cdr_obs.Span.set_forced false;
      Cdr_obs.Span.reset ())
  @@ fun () ->
  (try Cdr_obs.Span.with_ ~name:"boom" (fun () -> failwith "expected") with Failure _ -> ());
  Cdr_obs.Span.with_ ~name:"after" (fun () -> ());
  let names = List.map (fun s -> s.Cdr_obs.Span.name) (Cdr_obs.Span.roots ()) in
  Alcotest.(check (list string)) "both roots closed" [ "boom"; "after" ] names

(* ---------- Multigrid stage spans ---------- *)

let mg_model = lazy (Cdr.Model.build { Cdr.Config.default with Cdr.Config.grid_points = 32 })

(* one solve of the grid-32 chain against a fresh setup, with span recording
   forced or off; returns pi's bits, the cycle count, the level count and
   the spans the solve left behind *)
let mg_solve ?pool ~forced () =
  let m = Lazy.force mg_model in
  let chain = m.Cdr.Model.chain in
  let setup = Markov.Multigrid.setup ~hierarchy:(Cdr.Model.hierarchy m) chain in
  Cdr_obs.Span.reset ();
  Cdr_obs.Span.set_forced forced;
  Fun.protect ~finally:(fun () -> Cdr_obs.Span.set_forced false) @@ fun () ->
  let sol, stats = Markov.Multigrid.solve_with ?pool setup chain in
  let spans = Cdr_obs.Span.roots () in
  Cdr_obs.Span.reset ();
  ( Array.map Int64.bits_of_float sol.Markov.Solution.pi,
    stats.Markov.Multigrid.cycles,
    Markov.Multigrid.levels setup,
    spans )

let test_mg_tracing_moves_no_bit () =
  let same label run =
    let bits_off, cycles_off, _, spans_off = run ~forced:false in
    let bits_on, cycles_on, _, spans_on = run ~forced:true in
    check_int (label ^ ": no span when off") 0 (List.length spans_off);
    check_bool (label ^ ": spans when forced") true (spans_on <> []);
    check_int (label ^ ": same cycles") cycles_off cycles_on;
    check_bool (label ^ ": pi bitwise equal") true (bits_off = bits_on)
  in
  same "jobs=1" (fun ~forced -> mg_solve ~forced ());
  Cdr_par.Pool.with_pool ~jobs:2 (fun pool ->
      same "jobs=2 pool" (fun ~forced -> mg_solve ~pool ~forced ()))

let test_mg_stage_span_counts () =
  let _, cycles, levels, spans = mg_solve ~forced:true () in
  let count name = List.length (List.filter (fun sp -> sp.Cdr_obs.Span.name = name) spans) in
  check_bool "more than one level" true (levels > 1);
  check_int "two smoothing calls per level above the coarsest per cycle"
    (2 * (levels - 1) * cycles)
    (count "multigrid.smooth");
  check_int "one coarsest solve per cycle" cycles (count "multigrid.coarsest");
  check_int "one residual per cycle" cycles (count "multigrid.residual");
  List.iter
    (fun sp ->
      check_bool (sp.Cdr_obs.Span.name ^ " is a multigrid stage") true
        (String.starts_with ~prefix:"multigrid." sp.Cdr_obs.Span.name);
      check_bool (sp.Cdr_obs.Span.name ^ " has a level") true
        (List.mem_assoc "level" sp.Cdr_obs.Span.attrs);
      check_int (sp.Cdr_obs.Span.name ^ " is a leaf") 0 (List.length sp.Cdr_obs.Span.children))
    spans

(* ---------- Trace ---------- *)

let test_trace () =
  let t = Cdr_obs.Trace.create ~name:"mg" () in
  check_str "name" "mg" (Cdr_obs.Trace.name t);
  check_int "empty last_iter" 0 (Cdr_obs.Trace.last_iter t);
  Cdr_obs.Trace.record t ~iter:1 ~residual:1e-2;
  Cdr_obs.Trace.record t ~iter:2 ~residual:1e-5;
  Cdr_obs.Trace.record t ~iter:3 ~residual:1e-9;
  check_int "length" 3 (Cdr_obs.Trace.length t);
  check_int "last_iter" 3 (Cdr_obs.Trace.last_iter t);
  let s = Cdr_obs.Trace.samples t in
  check_int "chronological" 1 s.(0).Cdr_obs.Trace.iter;
  Alcotest.(check bool)
    "elapsed monotone" true
    (s.(0).Cdr_obs.Trace.elapsed <= s.(2).Cdr_obs.Trace.elapsed);
  Alcotest.(check bool) "rate >= 0" true (Cdr_obs.Trace.decades_per_second t >= 0.0);
  Cdr_obs.Trace.record_sweeps t ~level:0 ~sweeps:4;
  Cdr_obs.Trace.record_sweeps t ~level:1 ~sweeps:4;
  Cdr_obs.Trace.record_sweeps t ~level:0 ~sweeps:4;
  Alcotest.(check (list (pair int int)))
    "sweeps by level" [ (0, 8); (1, 4) ] (Cdr_obs.Trace.sweeps_by_level t);
  check_int "total sweeps" 12 (Cdr_obs.Trace.total_sweeps t);
  let csv = Cdr_obs.Trace.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "csv rows" 4 (List.length lines);
  check_str "csv header" "iter,residual,elapsed_s" (List.hd lines);
  (match String.split_on_char ',' (List.nth lines 1) with
  | [ it; res; _el ] ->
      check_int "csv iter" 1 (int_of_string it);
      Alcotest.(check (float 1e-15)) "csv residual" 1e-2 (float_of_string res)
  | _ -> Alcotest.fail "csv row shape")

(* ---------- Sink: JSONL file round-trip ---------- *)

let test_sink_jsonl_file () =
  let path = Filename.temp_file "cdr_obs_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
  @@ fun () ->
  Alcotest.(check bool) "disabled initially" false (Cdr_obs.Sink.enabled ());
  let _sink = Cdr_obs.Sink.install_file path in
  Alcotest.(check bool) "enabled after install" true (Cdr_obs.Sink.enabled ());
  let t = Cdr_obs.Trace.create ~name:"power" () in
  Cdr_obs.Trace.record t ~iter:1 ~residual:0.5;
  Cdr_obs.Trace.record t ~iter:2 ~residual:0.25;
  Cdr_obs.Span.with_ ~name:"scope" (fun () -> ());
  Cdr_obs.Sink.close_all ();
  Alcotest.(check bool) "disabled after close" false (Cdr_obs.Sink.enabled ());
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let events = List.rev_map Cdr_obs.Jsonl.of_string !lines in
  check_int "three events" 3 (List.length events);
  let typ e = Option.get (Option.bind (Cdr_obs.Jsonl.member "type" e) Cdr_obs.Jsonl.to_str) in
  Alcotest.(check (list string))
    "event types" [ "sample"; "sample"; "span" ] (List.map typ events);
  let first = List.hd events in
  check_str "trace name on event" "power"
    (Option.get (Option.bind (Cdr_obs.Jsonl.member "trace" first) Cdr_obs.Jsonl.to_str));
  Alcotest.(check (float 0.0))
    "residual on event" 0.5
    (Option.get (Option.bind (Cdr_obs.Jsonl.member "residual" first) Cdr_obs.Jsonl.to_float))

(* ---------- Report.run populates iterations from the trace ---------- *)

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

let test_report_iterations () =
  let cfg = Cdr.Config.create_exn small in
  List.iter
    (fun (name, solver) ->
      let report = Cdr.Report.run ~solver cfg in
      let trace = report.Cdr.Report.trace in
      Alcotest.(check bool) (name ^ ": trace non-empty") true (Cdr_obs.Trace.length trace > 0);
      Alcotest.(check bool) (name ^ ": iterations > 0") true (report.Cdr.Report.iterations > 0);
      check_int
        (name ^ ": iterations match trace")
        (Cdr_obs.Trace.last_iter trace) report.Cdr.Report.iterations;
      (match Cdr_obs.Trace.last trace with
      | Some s ->
          Alcotest.(check bool)
            (name ^ ": final residual below tol")
            true
            (s.Cdr_obs.Trace.residual < 1e-10)
      | None -> Alcotest.fail "trace empty");
      if solver = `Multigrid then
        Alcotest.(check bool)
          "multigrid records sweeps on every level" true
          (List.length (Cdr_obs.Trace.sweeps_by_level trace) > 1))
    [ ("multigrid", `Multigrid); ("power", `Power); ("gauss-seidel", `Gauss_seidel) ]

let () =
  Alcotest.run "cdr_obs"
    [
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "encoding" `Quick test_jsonl_encoding;
          Alcotest.test_case "member access" `Quick test_jsonl_member;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "quantiles vs exact" `Quick test_metrics_quantiles;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting;
          Alcotest.test_case "disabled / exceptions" `Quick test_span_disabled_and_exceptions;
        ] );
      ( "multigrid spans",
        [
          Alcotest.test_case "tracing moves no bit" `Quick test_mg_tracing_moves_no_bit;
          Alcotest.test_case "one span per stage call" `Quick test_mg_stage_span_counts;
        ] );
      ("trace", [ Alcotest.test_case "samples, sweeps, csv" `Quick test_trace ]);
      ("sink", [ Alcotest.test_case "jsonl file round-trip" `Quick test_sink_jsonl_file ]);
      ( "report",
        [ Alcotest.test_case "iterations from trace" `Quick test_report_iterations ] );
    ]
