(* Tests for the serving layer (Cdr_svc): request parsing and strict
   rejection of unknown fields, admission-queue backpressure at the bound,
   deadline timeouts that leave the engine serving, structure batching
   hitting the shared solver cache, the matrix-free backend's answers and
   rejections, and cache eviction accounting. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* small enough that an analyze request runs in well under a second *)
let tiny_params =
  { Cdr_svc.Params.default with Cdr_svc.Params.grid = 32; phases = 16; counter = 2 }

let tiny_json extra =
  Cdr_obs.Jsonl.to_string
    (Cdr_obs.Jsonl.Obj
       ([ ("grid", Cdr_obs.Jsonl.Num 32.); ("phases", Num 16.); ("counter", Num 2.) ] @ extra))

(* ---------- Params ---------- *)

let test_params_roundtrip () =
  let p = { tiny_params with Cdr_svc.Params.sigma_w = 0.07; solver = `Power } in
  match Cdr_svc.Params.of_json (Cdr_svc.Params.to_json p) with
  | Error msg -> Alcotest.failf "roundtrip rejected: %s" msg
  | Ok p' -> check_bool "to_json/of_json roundtrips" true (p = p')

let test_params_unknown_field () =
  match Cdr_svc.Params.of_json (Cdr_obs.Jsonl.Obj [ ("gird", Num 64.) ]) with
  | Ok _ -> Alcotest.fail "typo'd field accepted"
  | Error msg -> check_bool "message names the field" true (String.length msg > 0)

let test_params_keys () =
  let p = tiny_params in
  let q = { p with Cdr_svc.Params.sigma_w = p.Cdr_svc.Params.sigma_w *. 2. } in
  check_string "noise delta keeps the structure key" (Cdr_svc.Params.structure_key p)
    (Cdr_svc.Params.structure_key q);
  let r = { p with Cdr_svc.Params.counter = 4 } in
  check_bool "counter change splits the structure key" true
    (Cdr_svc.Params.structure_key p <> Cdr_svc.Params.structure_key r);
  let k = { p with Cdr_svc.Params.backend = `Kron } in
  check_bool "backend is part of the structure key" true
    (Cdr_svc.Params.structure_key p <> Cdr_svc.Params.structure_key k);
  check_string "backend does not split the model key" (Cdr_svc.Params.model_key p)
    (Cdr_svc.Params.model_key k);
  (* the router's rendezvous hashes the structure key and the result cache
     (persisted snapshots included) stores by the cache key: neither string
     may move *)
  check_string "structure key" "g32.ph16.k2.dr2.run8.multigrid.lex.csr"
    (Cdr_svc.Params.structure_key p);
  check_string "model key" "g32.ph16.k2.dr2.run8" (Cdr_svc.Params.model_key p);
  check_string "result cache key"
    "analyze|{\"version\":2,\"grid\":32,\"max_run\":8,\"noise\":{\"sigma_w\":0.059999999999999998,\"drift_mean\":0.10000000000000001,\"drift_max\":2},\"loop\":{\"phases\":16,\"counter\":2},\"p01\":0.5,\"p10\":0.5,\"solver\":\"multigrid\",\"smoother\":\"lex\",\"backend\":\"csr\"}"
    (Option.get
       (Cdr_svc.Protocol.cache_key
          {
            Cdr_svc.Protocol.id = "k";
            kind = Cdr_svc.Protocol.Analyze;
            params = p;
            deadline_ms = None;
            hold_ms = None;
          }))

let test_params_backend_codec () =
  let p = { tiny_params with Cdr_svc.Params.backend = `Kron } in
  (match Cdr_svc.Params.of_json (Cdr_svc.Params.to_json p) with
  | Error msg -> Alcotest.failf "kron roundtrip rejected: %s" msg
  | Ok p' -> check_bool "backend survives the roundtrip" true (p = p'));
  match
    Cdr_svc.Params.of_json
      (Cdr_obs.Jsonl.Obj [ ("backend", Cdr_obs.Jsonl.Str "dense") ])
  with
  | Ok _ -> Alcotest.fail "unknown backend accepted"
  | Error msg -> check_bool "message mentions the value" true (String.length msg > 0)

(* ---------- Protocol.parse_request ---------- *)

let parse = Cdr_svc.Protocol.parse_request

let test_parse_ok () =
  match parse ("{\"id\":\"r1\",\"kind\":\"analyze\",\"params\":" ^ tiny_json [] ^ "}") with
  | exception _ -> Alcotest.fail "raised"
  | Error (_, msg) -> Alcotest.failf "rejected: %s" msg
  | Ok req ->
      check_string "id" "r1" req.Cdr_svc.Protocol.id;
      check_bool "kind" true (req.Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Analyze);
      check_int "grid decoded" 32 req.Cdr_svc.Protocol.params.Cdr_svc.Params.grid

let test_parse_ok_defaults () =
  (match parse "{\"id\":\"r2\",\"kind\":\"sweep\"}" with
  | Error (_, msg) -> Alcotest.failf "rejected: %s" msg
  | Ok req ->
      check_bool "default lengths" true
        (req.Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Sweep Cdr_svc.Protocol.default_lengths);
      check_bool "default params" true
        (req.Cdr_svc.Protocol.params = Cdr_svc.Params.default));
  match parse "{\"id\":\"r3\",\"kind\":\"sigma\",\"values\":[0.05]}" with
  | Error (_, msg) -> Alcotest.failf "rejected: %s" msg
  | Ok req ->
      check_bool "explicit values" true
        (req.Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Sigma [ 0.05 ])

let reject line expect_id =
  match parse line with
  | Ok _ -> Alcotest.failf "accepted: %s" line
  | Error (id, msg) ->
      check_bool "rejection carries the id when parseable" true (id = expect_id);
      check_bool "rejection has a message" true (String.length msg > 0)

let test_parse_reject () =
  reject "not json" None;
  reject "[1,2]" None;
  reject "{\"kind\":\"analyze\"}" None;
  reject "{\"id\":\"\",\"kind\":\"analyze\"}" None;
  reject "{\"id\":\"x\",\"kind\":\"frobnicate\"}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"paramz\":{}}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"params\":{\"gird\":64}}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"lengths\":[2]}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"sweep\",\"values\":[0.05]}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"sweep\",\"lengths\":[]}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"deadline_ms\":-5}" (Some "x");
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"params\":{\"grid\":\"many\"}}" (Some "x")

(* ---------- Admission ---------- *)

let test_admission_backpressure () =
  let q = Cdr_svc.Admission.create ~bound:2 () in
  check_bool "push 1" true (Cdr_svc.Admission.push q 1 = `Ok);
  check_bool "push 2" true (Cdr_svc.Admission.push q 2 = `Ok);
  check_bool "push 3 refused at bound 2" true (Cdr_svc.Admission.push q 3 = `Overloaded);
  check_bool "pop returns fifo head" true (Cdr_svc.Admission.pop q = Some 1);
  check_bool "freed capacity admits again" true (Cdr_svc.Admission.push q 4 = `Ok);
  check_bool "drain empties in order" true (Cdr_svc.Admission.drain q = [ 2; 4 ]);
  Cdr_svc.Admission.close q;
  check_bool "push after close" true (Cdr_svc.Admission.push q 5 = `Closed);
  check_bool "pop after close on empty" true (Cdr_svc.Admission.pop q = None);
  (* closed but non-empty queues still drain: shutdown answers what it
     admitted *)
  let q2 = Cdr_svc.Admission.create ~bound:2 () in
  ignore (Cdr_svc.Admission.push q2 7);
  Cdr_svc.Admission.close q2;
  check_bool "pop drains queued work after close" true (Cdr_svc.Admission.pop q2 = Some 7);
  check_bool "then reports closed" true (Cdr_svc.Admission.pop q2 = None)

(* ---------- Engine ---------- *)

let reply_capture () =
  let captured = ref [] in
  ((fun json -> captured := json :: !captured), fun () -> List.rev !captured)

let field name json =
  match Cdr_obs.Jsonl.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S" name

let is_ok json = field "ok" json = Cdr_obs.Jsonl.Bool true

let error_code json =
  match Cdr_obs.Jsonl.member "code" (field "error" json) with
  | Some (Cdr_obs.Jsonl.Str s) -> s
  | _ -> Alcotest.fail "error without code"

let analyze_req ?(id = "t") ?(params = tiny_params) () =
  {
    Cdr_svc.Protocol.id;
    kind = Cdr_svc.Protocol.Analyze;
    params;
    deadline_ms = None;
    hold_ms = None;
  }

let test_engine_timeout_then_serve () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  (* expired before it starts: queue wait counts against the deadline *)
  Cdr_svc.Engine.handle engine
    {
      Cdr_svc.Engine.request = analyze_req ~id:"late" ();
      deadline = Some (Cdr_obs.Clock.monotonic () -. 1.);
      admitted = Cdr_obs.Clock.monotonic ();
      reply;
    };
  (* the engine must keep serving afterwards *)
  Cdr_svc.Engine.handle engine
    {
      Cdr_svc.Engine.request = analyze_req ~id:"after" ();
      deadline = None;
      admitted = Cdr_obs.Clock.monotonic ();
      reply;
    };
  match replies () with
  | [ timeout; ok ] ->
      check_bool "first timed out" false (is_ok timeout);
      check_string "timeout code" "timeout" (error_code timeout);
      check_bool "second served" true (is_ok ok)
  | rs -> Alcotest.failf "expected 2 replies, got %d" (List.length rs)

let test_engine_batch_cache_hits () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  (* vary the transition probability, not sigma_w: a sigma delta can move
     the reachable state set (fresh pattern, no reuse), while p_transition
     keeps every nonzero in place — the noise-only refill path *)
  let ps = [ 0.5; 0.45; 0.4 ] in
  let jobs =
    List.mapi
      (fun i p ->
        {
          Cdr_svc.Engine.request =
            analyze_req
              ~id:(Printf.sprintf "b%d" i)
              ~params:{ tiny_params with Cdr_svc.Params.p01 = p; p10 = p }
              ();
          deadline = None;
          admitted = Cdr_obs.Clock.monotonic ();
          reply;
        })
      ps
  in
  Cdr_svc.Engine.process engine jobs;
  let rs = replies () in
  check_int "every job answered" (List.length ps) (List.length rs);
  List.iter (fun r -> check_bool "answered ok" true (is_ok r)) rs;
  check_bool "same-structure batch hits the shared cache" true
    (Cdr.Solver_cache.hits (Cdr_svc.Engine.cache engine) > 0);
  (* the per-response cache delta reports the hits too *)
  let hits r =
    match Cdr_obs.Jsonl.(member "hits" (field "cache" r)) with
    | Some (Cdr_obs.Jsonl.Num h) -> int_of_float h
    | _ -> Alcotest.fail "no cache.hits"
  in
  check_bool "later responses report hits" true (List.exists (fun r -> hits r > 0) rs)

let test_engine_bad_config () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  (* grid not a multiple of phases: Config.validate must reject it *)
  Cdr_svc.Engine.handle engine
    {
      Cdr_svc.Engine.request =
        analyze_req ~id:"bad" ~params:{ tiny_params with Cdr_svc.Params.phases = 7 } ();
      deadline = None;
      admitted = Cdr_obs.Clock.monotonic ();
      reply;
    };
  match replies () with
  | [ r ] ->
      check_bool "rejected" false (is_ok r);
      check_string "bad_request code" "bad_request" (error_code r)
  | rs -> Alcotest.failf "expected 1 reply, got %d" (List.length rs)

let kron_params = { tiny_params with Cdr_svc.Params.backend = `Kron }

(* The span-name tree of one request through Engine.handle with recording
   forced: every distinct root-to-span path, in first-visit order (a V-cycle
   stage visited once per cycle is listed once). *)
let span_paths params =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  Cdr_obs.Span.reset ();
  Cdr_obs.Span.set_forced true;
  Fun.protect ~finally:(fun () ->
      Cdr_obs.Span.set_forced false;
      Cdr_obs.Span.reset ())
  @@ fun () ->
  Cdr_svc.Engine.handle engine
    {
      Cdr_svc.Engine.request = analyze_req ~params ();
      deadline = None;
      admitted = Cdr_obs.Clock.monotonic ();
      reply;
    };
  List.iter (fun r -> check_bool "analyze served" true (is_ok r)) (replies ());
  let seen = ref [] in
  let rec walk prefix (sp : Cdr_obs.Span.t) =
    let path = if prefix = "" then sp.name else prefix ^ "/" ^ sp.name in
    if not (List.mem path !seen) then seen := path :: !seen;
    List.iter (walk path) sp.children
  in
  List.iter (walk "") (Cdr_obs.Span.roots ());
  List.rev !seen

let test_engine_span_trees () =
  let check_paths what expected actual =
    Alcotest.(check (list string)) (what ^ " analyze span tree") expected actual
  in
  let solve = "serve.request/serve.solve/report.run/report.solve/model.solve" in
  let stages names = List.map (fun n -> solve ^ "/multigrid." ^ n) names in
  check_paths "csr"
    ([
       "serve.request";
       "serve.request/serve.solve";
       "serve.request/serve.solve/model.build";
       "serve.request/serve.solve/report.run";
       "serve.request/serve.solve/report.run/report.solve";
       solve;
     ]
    @ stages [ "scatter"; "smooth"; "aggregate"; "restrict"; "coarsest"; "prolong"; "residual" ])
    (span_paths tiny_params);
  (* the matrix-free IAD solve opens no span of its own; its one coarse
     V-cycle per outer cycle runs Multigrid's stages, with no residual *)
  check_paths "kron"
    ([
       "serve.request";
       "serve.request/serve.solve";
       "serve.request/serve.solve/kron_model.build";
       "serve.request/serve.solve/report.run";
       "serve.request/serve.solve/report.run/report.solve";
       solve;
     ]
    @ stages [ "scatter"; "smooth"; "aggregate"; "restrict"; "coarsest"; "prolong" ])
    (span_paths kron_params)

let test_engine_kron_analyze () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  let submit id params =
    Cdr_svc.Engine.handle engine
      {
        Cdr_svc.Engine.request = analyze_req ~id ~params ();
        deadline = None;
        admitted = Cdr_obs.Clock.monotonic ();
        reply;
      }
  in
  submit "kron" kron_params;
  submit "csr" tiny_params;
  match replies () with
  | [ kron; csr ] ->
      check_bool "kron analyze served" true (is_ok kron);
      check_bool "csr analyze served" true (is_ok csr);
      let num name r =
        match Cdr_obs.Jsonl.member name (field "result" r) with
        | Some (Cdr_obs.Jsonl.Num v) -> v
        | _ -> Alcotest.failf "result lacks %S" name
      in
      (* same response shape as the csr path, BER at solver tolerance *)
      check_bool "ber agrees across backends" true
        (Float.abs (num "ber" kron -. num "ber" csr)
         /. Float.max (num "ber" csr) 1e-300
        < 1e-6);
      check_bool "kron solves the full product space" true
        (num "size" kron >= num "size" csr);
      check_bool "kron reports slips" true (num "mean_bits_between_slips" kron > 0.0);
      (* the service's kron answer is the library's kron analysis of the
         same config: ber, size and slip time bitwise, and the report's
         trace-derived iteration count equal to the solver's own *)
      let cfg = Result.get_ok (Cdr_svc.Params.to_config kron_params) in
      let km = Cdr.Kron_model.build cfg in
      let sol = Cdr.Kron_model.solve ~solver:`Multigrid km in
      let pi = sol.Markov.Solution.pi in
      let bitwise name expected =
        check_bool (name ^ " bitwise") true
          (Int64.bits_of_float (num name kron) = Int64.bits_of_float expected)
      in
      bitwise "ber" (Cdr.Ber.of_marginal cfg ~rho:(Cdr.Kron_model.phase_marginal km ~pi));
      bitwise "size" (float_of_int (Cdr.Kron_model.n_states km));
      bitwise "mean_bits_between_slips" (Cdr.Kron_model.mean_time_between_slips km ~pi);
      check_int "iterations" sol.Markov.Solution.iterations (int_of_float (num "iterations" kron))
  | rs -> Alcotest.failf "expected 2 replies, got %d" (List.length rs)

(* the service's slip answer warm-starts the restart solve from the
   stationary vector it has just computed; it must agree with the cold
   library call the traced replay makes *)
let test_engine_slip_warm_matches_cold () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  (* a rare-slip config (first slip ~1e9 bits) and a frequent one *)
  let configs =
    [
      { tiny_params with Cdr_svc.Params.phases = 8; counter = 3; sigma_w = 0.0707 };
      { tiny_params with Cdr_svc.Params.phases = 8; sigma_w = 0.25 };
    ]
  in
  List.iteri
    (fun i params ->
      Cdr_svc.Engine.handle engine
        {
          Cdr_svc.Engine.request =
            {
              (analyze_req ~id:(Printf.sprintf "s%d" i) ~params ()) with
              Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Slip;
            };
          deadline = None;
          admitted = Cdr_obs.Clock.monotonic ();
          reply;
        })
    configs;
  let rs = replies () in
  check_int "every slip answered" (List.length configs) (List.length rs);
  List.iter2
    (fun params r ->
      check_bool "slip served" true (is_ok r);
      check_bool "not degraded" true (field "degraded" r = Cdr_obs.Jsonl.Bool false);
      let warm =
        match Cdr_obs.Jsonl.member "mean_bits_to_first_slip" (field "result" r) with
        | Some (Cdr_obs.Jsonl.Num v) -> v
        | _ -> Alcotest.fail "result lacks mean_bits_to_first_slip"
      in
      let model = Cdr.Model.build (Result.get_ok (Cdr_svc.Params.to_config params)) in
      let cold = Cdr.Cycle_slip.mean_first_slip_time model in
      let rel = Float.abs (warm -. cold) /. cold in
      check_bool (Printf.sprintf "warm %.6e = cold %.6e (rel %.1e)" warm cold rel) true
        (rel <= 1e-9))
    configs rs

let test_engine_kron_unsupported_kinds () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  let submit ?(params = kron_params) id kind =
    Cdr_svc.Engine.handle engine
      {
        Cdr_svc.Engine.request = { (analyze_req ~id ~params ()) with Cdr_svc.Protocol.kind };
        deadline = None;
        admitted = Cdr_obs.Clock.monotonic ();
        reply;
      }
  in
  submit "slip" Cdr_svc.Protocol.Slip;
  submit "sweep" (Cdr_svc.Protocol.Sweep Cdr_svc.Protocol.default_lengths);
  submit "sigma" (Cdr_svc.Protocol.Sigma [ 0.05 ]);
  (* gauss-seidel has no matrix-free sweep, on analyze and env alike *)
  submit ~params:{ kron_params with Cdr_svc.Params.solver = `Gauss_seidel } "gs-analyze"
    Cdr_svc.Protocol.Analyze;
  submit
    ~params:
      {
        kron_params with
        Cdr_svc.Params.solver = `Gauss_seidel;
        env = Some (Cdr_env.Env.bursty ());
      }
    "gs-env" Cdr_svc.Protocol.Env;
  (* a client mistake, not an engine failure: the engine keeps serving *)
  submit "after" Cdr_svc.Protocol.Analyze;
  match replies () with
  | [ slip; sweep; sigma; gs_analyze; gs_env; after ] ->
      List.iter
        (fun r ->
          check_bool "rejected" false (is_ok r);
          check_string "bad_request code" "bad_request" (error_code r))
        [ slip; sweep; sigma; gs_analyze; gs_env ];
      check_bool "engine still serves kron analyze" true (is_ok after)
  | rs -> Alcotest.failf "expected 6 replies, got %d" (List.length rs)

(* A kron model adopts the previous same-structure model's IAD setup, whose
   coarse pattern was aggregated from the old operator. A larger sigma_w
   widens the operator's nonzero structure (grid 32, counter 2: 0.06 ->
   0.07), so the setup must re-assemble its pattern — the answer must be
   the one a fresh engine gives, and the engine must keep answering. *)
let test_engine_kron_setup_transplant () =
  let params sigma_w = { kron_params with Cdr_svc.Params.sigma_w } in
  let run_all sigmas =
    let engine = Cdr_svc.Engine.create () in
    let reply, replies = reply_capture () in
    List.iteri
      (fun i s ->
        Cdr_svc.Engine.handle engine
          {
            Cdr_svc.Engine.request =
              analyze_req ~id:(string_of_int i) ~params:(params s) ();
            deadline = None;
            admitted = Cdr_obs.Clock.monotonic ();
            reply;
          })
      sigmas;
    replies ()
  in
  let ber r =
    match Cdr_obs.Jsonl.member "ber" (field "result" r) with
    | Some (Cdr_obs.Jsonl.Num v) -> v
    | _ -> Alcotest.fail "result lacks ber"
  in
  match (run_all [ 0.06; 0.07; 0.07 ], run_all [ 0.07 ]) with
  | ([ _; second; third ] as all), [ fresh ] ->
      List.iter (fun r -> check_bool "answered ok" true (is_ok r)) (fresh :: all);
      List.iter
        (fun r ->
          check_bool "0.07 BER matches a fresh engine" true
            (Float.abs (ber r -. ber fresh) <= 1e-12 *. Float.abs (ber fresh)))
        [ second; third ]
  | _ -> Alcotest.fail "expected 3 + 1 replies"

(* ---------- Stats round-trip ---------- *)

(* A "stats" request parses off the wire, flows through Engine.handle like a
   solve, and answers with a metrics/uptime snapshot that already reflects
   the requests handled before it. *)
let test_engine_stats_roundtrip () =
  (match parse "{\"id\":\"s1\",\"kind\":\"stats\"}" with
  | Error (_, msg) -> Alcotest.failf "stats request rejected: %s" msg
  | Ok req ->
      check_bool "kind is stats" true (req.Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Stats));
  (* sweep/sigma-only fields stay rejected on a stats request *)
  reject "{\"id\":\"s2\",\"kind\":\"stats\",\"lengths\":[2]}" (Some "s2");
  reject "{\"id\":\"s3\",\"kind\":\"stats\",\"values\":[0.05]}" (Some "s3");
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  let submit req =
    Cdr_svc.Engine.handle engine
      {
        Cdr_svc.Engine.request = req;
        deadline = None;
        admitted = Cdr_obs.Clock.monotonic ();
        reply;
      }
  in
  submit (analyze_req ~id:"warm" ());
  submit { (analyze_req ~id:"snap" ()) with Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Stats };
  match replies () with
  | [ warm; snap ] -> (
      check_bool "analyze ok" true (is_ok warm);
      check_bool "stats ok" true (is_ok snap);
      let result = field "result" snap in
      (match Cdr_obs.Jsonl.member "uptime_s" result with
      | Some (Cdr_obs.Jsonl.Num u) -> check_bool "uptime positive" true (u > 0.0)
      | _ -> Alcotest.fail "stats lacks uptime_s");
      (match Cdr_obs.Jsonl.member "queue_depth" result with
      | Some (Cdr_obs.Jsonl.Num _) -> ()
      | _ -> Alcotest.fail "stats lacks queue_depth");
      (* the warm analyze is already visible in the request counters *)
      (match Cdr_obs.Jsonl.member "requests" result with
      | Some (Cdr_obs.Jsonl.List rows) ->
          check_bool "analyze/ok counted" true
            (List.exists
               (fun row ->
                 Cdr_obs.Jsonl.member "kind" row = Some (Cdr_obs.Jsonl.Str "analyze")
                 && Cdr_obs.Jsonl.member "status" row = Some (Cdr_obs.Jsonl.Str "ok"))
               rows)
      | _ -> Alcotest.fail "stats lacks requests");
      (* ... and in the latency histograms, with interpolated quantiles *)
      (match Cdr_obs.Jsonl.member "latency_seconds" result with
      | Some (Cdr_obs.Jsonl.List (row :: _)) ->
          List.iter
            (fun f ->
              match Cdr_obs.Jsonl.member f row with
              | Some (Cdr_obs.Jsonl.Num v) ->
                  check_bool (f ^ " non-negative") true (v >= 0.0)
              | _ -> Alcotest.failf "latency row lacks %s" f)
            [ "mean"; "p50"; "p95"; "p99" ]
      | _ -> Alcotest.fail "stats lacks latency_seconds rows");
      match Cdr_obs.Jsonl.member "cache" result with
      | Some cache ->
          check_bool "cache entry count reported" true
            (Cdr_obs.Jsonl.member "entries" cache <> None);
          check_bool "cache bytes reported" true
            (Cdr_obs.Jsonl.member "bytes" cache
            = Some (Cdr_obs.Jsonl.Num
                      (float_of_int (Cdr.Solver_cache.bytes (Cdr_svc.Engine.cache engine)))))
      | None -> Alcotest.fail "stats lacks cache")
  | rs -> Alcotest.failf "expected 2 replies, got %d" (List.length rs)

(* ---------- Solver_cache byte budget ---------- *)

let model_of params =
  Cdr.Model.build
    (match Cdr_svc.Params.to_config params with
    | Ok cfg -> cfg
    | Error msg -> Alcotest.failf "config: %s" msg)

let setup_bytes_of m =
  Markov.Multigrid.setup_bytes
    (Markov.Multigrid.setup ~hierarchy:(Cdr.Model.hierarchy m) m.Cdr.Model.chain)

let test_cache_evictions () =
  let m2 = model_of { tiny_params with Cdr_svc.Params.counter = 2 }
  and m3 = model_of { tiny_params with Cdr_svc.Params.counter = 3 } in
  (* room for either structure's setup, not for both *)
  let max_bytes = max (setup_bytes_of m2) (setup_bytes_of m3) in
  check_bool "the two setups overflow the budget together" true
    (setup_bytes_of m2 + setup_bytes_of m3 > max_bytes);
  let cache = Cdr.Solver_cache.create ~max_bytes () in
  let setup_of m =
    ignore
      (Cdr.Solver_cache.setup cache
         ~hierarchy:(fun () -> Cdr.Model.hierarchy m)
         m.Cdr.Model.chain)
  in
  setup_of m2;
  check_int "no eviction while the budget lasts" 0 (Cdr.Solver_cache.evictions cache);
  setup_of m3;
  check_int "second structure evicts the first" 1 (Cdr.Solver_cache.evictions cache);
  check_int "one setup fits the budget" 1 (Cdr.Solver_cache.length cache);
  check_int "the cache accounts its one setup" (setup_bytes_of m3) (Cdr.Solver_cache.bytes cache);
  setup_of m2;
  check_int "round trip evicts again" 2 (Cdr.Solver_cache.evictions cache)

(* the result fields that carry answers (the timing field differs per run) *)
let answer json =
  match field "result" json with
  | Cdr_obs.Jsonl.Obj fields ->
      Cdr_obs.Jsonl.to_string
        (Cdr_obs.Jsonl.Obj (List.filter (fun (k, _) -> k <> "solve_seconds") fields))
  | _ -> Alcotest.fail "result is not an object"

let test_engine_budget () =
  let counters = [ 2; 3; 4 ] in
  let small = List.map (fun c -> { tiny_params with Cdr_svc.Params.counter = c }) counters in
  let big = { tiny_params with Cdr_svc.Params.grid = 64; counter = 4 } in
  let sizes = List.map (fun p -> setup_bytes_of (model_of p)) small in
  (* two small setups fit, three do not, and the big one never does *)
  let max_bytes = List.fold_left ( + ) 0 sizes - List.fold_left min max_int sizes in
  check_bool "the big setup exceeds the whole budget" true
    (setup_bytes_of (model_of big) > max_bytes);
  let stream =
    List.mapi
      (fun i params ->
        analyze_req ~id:(Printf.sprintf "q%d" i)
          ~params:{ params with Cdr_svc.Params.sigma_w = 0.06 +. (1e-4 *. float_of_int i) }
          ())
      (small @ [ big; List.nth small 0; big ] @ List.rev small)
  in
  let run engine ~after =
    let reply, replies = reply_capture () in
    List.iter
      (fun req ->
        Cdr_svc.Engine.handle engine
          { Cdr_svc.Engine.request = req; deadline = None; admitted = Cdr_obs.Clock.monotonic (); reply };
        after req)
      stream;
    List.map answer (replies ())
  in
  let bounded = Cdr_svc.Engine.create ~cache:(Cdr.Solver_cache.create ~max_bytes ()) () in
  let cache = Cdr_svc.Engine.cache bounded in
  let prev = ref (0, 0) in
  let bounded_answers =
    run bounded ~after:(fun req ->
        let entries = Cdr.Solver_cache.length cache and bytes = Cdr.Solver_cache.bytes cache in
        check_bool "accounted bytes within the budget" true (bytes <= max_bytes);
        if req.Cdr_svc.Protocol.params.Cdr_svc.Params.grid = big.Cdr_svc.Params.grid then
          check_bool "an over-budget setup is not retained" true ((entries, bytes) = !prev);
        prev := (entries, bytes))
  in
  check_bool "the budget evicted" true (Cdr.Solver_cache.evictions cache > 0);
  let unbounded_answers = run (Cdr_svc.Engine.create ()) ~after:ignore in
  List.iter2
    (fun a b -> check_string "bounded answer = unbounded answer" b a)
    bounded_answers unbounded_answers

let gauge name labels =
  List.find_map
    (fun (s : Cdr_obs.Metrics.series) ->
      match s.Cdr_obs.Metrics.kind with
      | Cdr_obs.Metrics.Gauge v when s.Cdr_obs.Metrics.name = name && s.labels = labels ->
          Some (int_of_float v)
      | _ -> None)
    (Cdr_obs.Metrics.dump ())

let test_engine_cache_gauges () =
  let engine = Cdr_svc.Engine.create () in
  let reply, _ = reply_capture () in
  let submit req =
    Cdr_svc.Engine.handle engine
      { Cdr_svc.Engine.request = req; deadline = None; admitted = Cdr_obs.Clock.monotonic (); reply }
  in
  submit (analyze_req ~id:"a2" ());
  submit (analyze_req ~id:"a3" ~params:{ tiny_params with Cdr_svc.Params.counter = 3 } ());
  (* a warm sigma sweep solves through private per-chunk caches; the gauges
     must still describe the engine's own two-structure cache afterwards *)
  submit
    { (analyze_req ~id:"s" ()) with Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Sigma [ 0.06; 0.061 ] };
  let cache = Cdr_svc.Engine.cache engine in
  check_int "engine cache holds both structures" 2 (Cdr.Solver_cache.length cache);
  check_bool "entries gauge is the engine cache's" true
    (gauge "solver_cache.entries" [] = Some (Cdr.Solver_cache.length cache));
  check_bool "bytes gauge is the engine cache's" true
    (gauge "solver_cache.bytes" [] = Some (Cdr.Solver_cache.bytes cache))

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* "lex" is the only smoother: both schema versions refuse any other value
   with a message that names it, and on the served path the refusal is a
   structured bad_request while the same request with "lex" is answered *)
let test_params_smoother () =
  let colored = ("smoother", Cdr_obs.Jsonl.Str "colored") in
  List.iter
    (fun (schema, fields) ->
      match Cdr_svc.Params.of_json (Cdr_obs.Jsonl.Obj fields) with
      | Ok _ -> Alcotest.failf "%s: colored smoother accepted" schema
      | Error msg -> check_bool (schema ^ ": message names lex") true (contains ~sub:"\"lex\"" msg))
    [ ("v1", [ ("grid", Cdr_obs.Jsonl.Num 32.); colored ]);
      ("v2", [ ("version", Cdr_obs.Jsonl.Num 2.); colored ]) ];
  let svc =
    Cdr_svc.Server.local_service
      {
        Cdr_svc.Server.queue_bound = 4;
        jobs = None;
        default_deadline_ms = None;
        replica = None;
        results = None;
      }
  in
  let write, replies = reply_capture () in
  let line id smoother =
    Printf.sprintf "{\"id\":%S,\"kind\":\"analyze\",\"params\":%s}" id
      (tiny_json [ ("smoother", Cdr_obs.Jsonl.Str smoother) ])
  in
  svc.Cdr_svc.Server.submit_line ~write (line "colored" "colored");
  svc.Cdr_svc.Server.submit_line ~write (line "lex" "lex");
  svc.Cdr_svc.Server.shutdown ();
  svc.Cdr_svc.Server.run ();
  match replies () with
  | [ refused; served ] ->
      check_string "refusal keeps the id" "colored"
        (match field "id" refused with Cdr_obs.Jsonl.Str s -> s | _ -> "");
      check_string "bad_request code" "bad_request" (error_code refused);
      check_bool "refusal names lex" true
        (match Cdr_obs.Jsonl.member "message" (field "error" refused) with
        | Some (Cdr_obs.Jsonl.Str m) -> contains ~sub:"\"lex\"" m
        | _ -> false);
      check_bool "lex request served" true (is_ok served)
  | rs -> Alcotest.failf "expected 2 replies, got %d" (List.length rs)

let () =
  Alcotest.run "svc"
    [
      ( "params",
        [
          Alcotest.test_case "json roundtrip" `Quick test_params_roundtrip;
          Alcotest.test_case "unknown field rejected" `Quick test_params_unknown_field;
          Alcotest.test_case "backend codec" `Quick test_params_backend_codec;
          Alcotest.test_case "structure and model keys" `Quick test_params_keys;
          Alcotest.test_case "lex is the only smoother" `Quick test_params_smoother;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "well-formed request" `Quick test_parse_ok;
          Alcotest.test_case "defaults fill in" `Quick test_parse_ok_defaults;
          Alcotest.test_case "malformed and unknown-field requests" `Quick test_parse_reject;
        ] );
      ( "admission",
        [ Alcotest.test_case "backpressure at bound 2" `Quick test_admission_backpressure ] );
      ( "engine",
        [
          Alcotest.test_case "timeout then keeps serving" `Quick test_engine_timeout_then_serve;
          Alcotest.test_case "same-structure batch hits cache" `Quick
            test_engine_batch_cache_hits;
          Alcotest.test_case "invalid config is bad_request" `Quick test_engine_bad_config;
          Alcotest.test_case "kron analyze matches csr" `Quick test_engine_kron_analyze;
          Alcotest.test_case "warm slip matches cold first slip" `Quick
            test_engine_slip_warm_matches_cold;
          Alcotest.test_case "kron-unsupported kinds are bad_request" `Quick
            test_engine_kron_unsupported_kinds;
          Alcotest.test_case "kron setup transplant across sigma_w" `Quick
            test_engine_kron_setup_transplant;
          Alcotest.test_case "stats round-trip" `Quick test_engine_stats_roundtrip;
          Alcotest.test_case "analyze span trees, csr and kron" `Quick test_engine_span_trees;
        ] );
      ( "cache",
        [
          Alcotest.test_case "eviction counter" `Quick test_cache_evictions;
          Alcotest.test_case "engine within its byte budget" `Quick test_engine_budget;
          Alcotest.test_case "gauges track the engine cache" `Quick test_engine_cache_gauges;
        ] );
    ]
