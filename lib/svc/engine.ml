type t = {
  pool : Cdr_par.Pool.t option;
  cache : Cdr.Solver_cache.t;
  results : Result_cache.t option;
  replica : int option;
  (* extra labels stamped on every per-request series ([serve.requests],
     [serve.latency_seconds], [serve.stage_seconds]): a worker replica
     carries [replica=<i>] so the quantile machinery attributes latency
     per replica once several workers' stats are aggregated *)
  labels : (string * string) list;
  mutable last_model : (string * Cdr.Model.t) option;
  mutable last_kron : (string * Cdr.Kron_model.t) option;
  mutable last_env : (string * Cdr_env.Composed.t) option;
}

let create ?pool ?cache ?results ?replica () =
  let cache = match cache with Some c -> c | None -> Cdr.Solver_cache.create () in
  let labels =
    match replica with Some r -> [ ("replica", string_of_int r) ] | None -> []
  in
  { pool; cache; results; replica; labels; last_model = None; last_kron = None; last_env = None }

let cache t = t.cache

let results t = t.results

type job = {
  request : Protocol.request;
  deadline : float option;
  admitted : float;
  reply : Cdr_obs.Jsonl.t -> unit;
}

(* a request whose parameters are well-formed but name a combination this
   engine cannot serve (matrix-free backend on a CSR-only kind, an env
   request without an environment);
   caught in [handle] and mapped to [`Bad_request] — the client mistake
   channel, never [`Internal] *)
exception Unsupported of string

let get_model t params config =
  let key = Params.model_key params in
  let model =
    match t.last_model with
    | Some (k, m) when k = key -> fst (Cdr.Model.rebuild ?pool:t.pool m config)
    | _ -> Cdr.Model.build ?pool:t.pool config
  in
  t.last_model <- Some (key, model);
  model

(* single solves retry once on non-convergence: 1000x looser tolerance,
   warm-started from the failed iterate, and the response is flagged *)
let with_degraded_retry ctx solve =
  let first = solve ctx in
  if (snd first).Markov.Solution.converged then (first, false)
  else begin
    Cdr_obs.Metrics.incr "serve.degraded_retries";
    let ctx =
      Cdr.Context.override
        ~tol:(ctx.Cdr.Context.tol *. 1e3)
        ~init:(snd first).Markov.Solution.pi ctx
    in
    (solve ctx, true)
  end

let num f = Cdr_obs.Jsonl.Num f
let int_num i = Cdr_obs.Jsonl.Num (float_of_int i)

let point_json ~key ~value (pt : Cdr.Sweep.point) =
  Cdr_obs.Jsonl.Obj
    [
      (key, value);
      ("ber", num pt.Cdr.Sweep.report.Cdr.Report.ber);
      ("iterations", int_num pt.Cdr.Sweep.report.Cdr.Report.iterations);
    ]

(* the "stats" payload: a self-describing snapshot of the serving process,
   assembled from the metrics registry and the engine's own cache. Served
   from the worker like any solve, so it also measures the queue. *)
let quantile_fields (h : Cdr_obs.Metrics.histogram) =
  [
    ("count", int_num h.Cdr_obs.Metrics.count);
    ("mean", num (h.Cdr_obs.Metrics.sum /. float_of_int h.Cdr_obs.Metrics.count));
    ("p50", num (Cdr_obs.Metrics.quantile h 0.5));
    ("p95", num (Cdr_obs.Metrics.quantile h 0.95));
    ("p99", num (Cdr_obs.Metrics.quantile h 0.99));
  ]

let stats_payload t =
  let series = Cdr_obs.Metrics.dump () in
  let label (s : Cdr_obs.Metrics.series) k =
    Option.value ~default:"" (List.assoc_opt k s.Cdr_obs.Metrics.labels)
  in
  let requests =
    List.filter_map
      (fun (s : Cdr_obs.Metrics.series) ->
        match s.Cdr_obs.Metrics.kind with
        | Cdr_obs.Metrics.Counter n when s.Cdr_obs.Metrics.name = "serve.requests" ->
            Some
              (Cdr_obs.Jsonl.Obj
                 [
                   ("kind", Str (label s "kind"));
                   ("status", Str (label s "status"));
                   ("count", int_num n);
                 ])
        | _ -> None)
      series
  in
  let latency =
    List.filter_map
      (fun (s : Cdr_obs.Metrics.series) ->
        match s.Cdr_obs.Metrics.kind with
        | Cdr_obs.Metrics.Histogram h
          when s.Cdr_obs.Metrics.name = "serve.latency_seconds"
               && h.Cdr_obs.Metrics.count > 0 ->
            Some
              (Cdr_obs.Jsonl.Obj
                 (("kind", Cdr_obs.Jsonl.Str (label s "kind"))
                 :: ("status", Str (label s "status"))
                 :: quantile_fields h))
        | _ -> None)
      series
  in
  let queue_depth =
    List.fold_left
      (fun acc (s : Cdr_obs.Metrics.series) ->
        match s.Cdr_obs.Metrics.kind with
        | Cdr_obs.Metrics.Gauge v when s.Cdr_obs.Metrics.name = "serve.queue_depth" -> v
        | _ -> acc)
      0.0 series
  in
  Cdr_obs.Jsonl.Obj
    ([
       ("uptime_s", num (Cdr_obs.Clock.elapsed ()));
       ("queue_depth", num queue_depth);
       ("requests", List requests);
       ("latency_seconds", List latency);
       ( "cache",
         Obj
           [
             ("hits", int_num (Cdr.Solver_cache.hits t.cache));
             ("misses", int_num (Cdr.Solver_cache.misses t.cache));
             ("evictions", int_num (Cdr.Solver_cache.evictions t.cache));
             ("entries", int_num (Cdr.Solver_cache.length t.cache));
             ("bytes", int_num (Cdr.Solver_cache.bytes t.cache));
           ] );
     ]
    @ (match t.results with
      | Some rc ->
          [
            ( "result_cache",
              Cdr_obs.Jsonl.Obj
                [
                  ("hits", int_num (Result_cache.hits rc));
                  ("misses", int_num (Result_cache.misses rc));
                  ("evictions", int_num (Result_cache.evictions rc));
                  ("entries", int_num (Result_cache.length rc));
                ] );
          ]
      | None -> [])
    @ (match t.replica with Some r -> [ ("replica", int_num r) ] | None -> [])
    @ [ ("pid", int_num (Unix.getpid ())) ])

(* The IAD solver setup a matrix-free model memoizes (partition maps,
   iterate/weight workspaces, the aggregated coarse pattern and its
   Multigrid setup) is O(states) and depends on the operator's structure
   only, so a fresh build of the same shape adopts the previous model's
   setup and repeated queries reallocate none of it. A setup whose coarse
   pattern no longer covers the new operator re-assembles it on its first
   cycle ({!Markov.Op_multigrid.matches}). *)
let transplant_iad prev op adopt =
  match prev with Some s when Markov.Op_multigrid.matches s op -> adopt s | _ -> ()

(* The kron model itself is rebuilt per request — factor matrices are a few
   KB, the build is O(grid) table work — and adopts the previous model's IAD
   setup when the structural key repeats. *)
let get_kron_model t params config =
  let key = Params.model_key params in
  let model = Cdr.Kron_model.build config in
  (match t.last_kron with
  | Some (k, prev) when k = key ->
      transplant_iad prev.Cdr.Kron_model.iad model.Cdr.Kron_model.op (fun s ->
          model.Cdr.Kron_model.iad <- Some s)
  | _ -> ());
  t.last_kron <- Some (key, model);
  model

(* Composed environment models are keyed on the model key (which already
   carries the env-spec hash) plus the noise fields and backend: the
   per-regime configurations depend on sigma_w/drift/p01/p10, and there is
   no [rebuild]-style refill for the composed chain, so a key hit reuses
   the model outright — including its memoized IAD setup — and a miss
   builds fresh, transplanting the previous setup when the operator shape
   matches. The env JSON rides in the key verbatim so two specs hashing
   alike can never serve each other's model. *)
let get_env_model t params config env =
  let key =
    Printf.sprintf "%s|%h|%h|%h|%h|%s|%s" (Params.model_key params) params.Params.sigma_w
      params.Params.drift_mean params.Params.p01 params.Params.p10
      (Params.string_of_backend params.Params.backend)
      (Cdr_obs.Jsonl.to_string (Cdr_env.Env.to_json env))
  in
  let model =
    match t.last_env with
    | Some (k, m) when k = key -> m
    | prev ->
        let m = Cdr_env.Composed.build ~backend:params.Params.backend env config in
        Option.iter
          (fun (_, old) ->
            transplant_iad old.Cdr_env.Composed.iad m.Cdr_env.Composed.op (fun s ->
                m.Cdr_env.Composed.iad <- Some s))
          prev;
        m
  in
  t.last_env <- Some (key, model);
  model

let run_env t ~ctx p config =
  let env =
    match p.Params.env with
    | Some e -> e
    | None -> raise (Unsupported "\"env\" requests require a params field \"env\"")
  in
  let model = get_env_model t p config env in
  let (r, _), degraded =
    with_degraded_retry ctx (fun ctx ->
        Cdr_env.Report.run_model ~solver:p.Params.solver ~ctx model)
  in
  ( Cdr_obs.Jsonl.Obj
      [
        ("ber", num r.Cdr_env.Report.ber);
        ("size", int_num r.Cdr_env.Report.n_states);
        ("iterations", int_num r.Cdr_env.Report.iterations);
        ("solve_seconds", num r.Cdr_env.Report.solve_seconds);
        ("slip_rate", num r.Cdr_env.Report.slip_rate);
        ("mean_bits_between_slips", num r.Cdr_env.Report.mean_bits_between_slips);
        ( "regimes",
          List
            (Array.to_list
               (Array.mapi
                  (fun e (g : Cdr_env.Env.regime) ->
                    Cdr_obs.Jsonl.Obj
                      [
                        ("name", Str g.Cdr_env.Env.name);
                        ("prob", num r.Cdr_env.Report.regime_probs.(e));
                        ("ber", num r.Cdr_env.Report.regime_ber.(e));
                      ])
                  r.Cdr_env.Report.env.Cdr_env.Env.regimes)) );
      ],
    degraded )

(* the "scenarios" payload: every built-in preset with the parameter record
   a ["scenario"]-seeded request would start from, so a client can list,
   pick and replay without hardcoding preset contents *)
let scenarios_payload () =
  Cdr_obs.Jsonl.Obj
    [
      ( "scenarios",
        List
          (List.map
             (fun (s : Cdr.Scenario.t) ->
               Cdr_obs.Jsonl.Obj
                 [
                   ("name", Str s.Cdr.Scenario.name);
                   ("description", Str s.Cdr.Scenario.description);
                   ("ber_specification", Num s.Cdr.Scenario.ber_specification);
                   ("params", Params.to_json (Params.of_scenario s));
                 ])
             Cdr.Scenario.all) );
    ]

(* the one rule for kinds the matrix-free backend cannot serve: their
   functionals (the first-slip restart chain, the sweep continuation) run
   on the materialized chain *)
let check_backend req =
  match (req.Protocol.kind, req.Protocol.params.Params.backend) with
  | (Protocol.Slip | Protocol.Sweep _ | Protocol.Sigma _), `Kron ->
      raise
        (Unsupported
           (Printf.sprintf
              "request kind %S requires the csr backend (first-passage/sweep machinery runs on \
               the materialized chain); use backend=csr"
              (Protocol.kind_name req.Protocol.kind)))
  | _ -> ()

let run_kind t ~ctx req config =
  check_backend req;
  let p = req.Protocol.params in
  match req.Protocol.kind with
  | Protocol.Analyze ->
      (* one model slot per backend: requests alternating backends on one
         structure would otherwise evict each other and defeat
         [Model.rebuild] *)
      let model =
        match p.Params.backend with
        | `Csr -> Cdr.Report.Csr (get_model t p config)
        | `Kron -> Cdr.Report.Kron (get_kron_model t p config)
      in
      let (report, sol), degraded =
        with_degraded_retry ctx (fun ctx ->
            Cdr.Report.run_model ~solver:p.Params.solver ~ctx model)
      in
      let mtbf = Cdr.Report.mean_time_between_slips model ~pi:sol.Markov.Solution.pi in
      ( Cdr_obs.Jsonl.Obj
          [
            ("ber", num report.Cdr.Report.ber);
            ("size", int_num report.Cdr.Report.size);
            ("iterations", int_num report.Cdr.Report.iterations);
            ("solve_seconds", num report.Cdr.Report.solve_seconds);
            ("mean_bits_between_slips", num mtbf);
          ],
        degraded )
  | Protocol.Slip ->
      let model = get_model t p config in
      let ((_, sol), degraded) =
        with_degraded_retry ctx (fun ctx ->
            ((), Cdr.Model.solve ~solver:p.Params.solver ~ctx model))
      in
      let pi = sol.Markov.Solution.pi in
      (* the restart chain differs from the model's only on its crossing
         entries, so the stationary vector just computed is a close start;
         an unconverged restart solve takes the same retry and flag *)
      let (first, _), first_degraded =
        with_degraded_retry (Cdr.Context.override ~init:pi ctx) (fun ctx ->
            Cdr.Cycle_slip.first_slip ~ctx model)
      in
      ( Cdr_obs.Jsonl.Obj
          [
            ("slip_rate", num (Cdr.Cycle_slip.rate model ~pi));
            ("mean_bits_between_slips", num (Cdr.Cycle_slip.mean_time_between model ~pi));
            ("mean_bits_to_first_slip", num first);
          ],
        degraded || first_degraded )
  | Protocol.Sweep lengths ->
      let ctx = Cdr.Context.override ~strategy:Cdr.Context.warm ctx in
      let points = Cdr.Sweep.counter_lengths ~solver:p.Params.solver ~ctx config lengths in
      let best_k, best_ber = Cdr.Sweep.optimal_of_points points in
      ( Cdr_obs.Jsonl.Obj
          [
            ( "points",
              List
                (List.map
                   (fun pt ->
                     point_json ~key:"counter"
                       ~value:(int_num pt.Cdr.Sweep.config.Cdr.Config.counter_length)
                       pt)
                   points) );
            ("optimal", Obj [ ("counter", int_num best_k); ("ber", num best_ber) ]);
          ],
        false )
  | Protocol.Sigma values ->
      let ctx = Cdr.Context.override ~strategy:Cdr.Context.warm ctx in
      let points = Cdr.Sweep.sigma_w_values ~solver:p.Params.solver ~ctx config values in
      ( Cdr_obs.Jsonl.Obj
          [
            ( "points",
              List
                (List.map
                   (fun pt ->
                     point_json ~key:"sigma_w" ~value:(num pt.Cdr.Sweep.config.Cdr.Config.sigma_w)
                       pt)
                   points) );
          ],
        false )
  | Protocol.Env -> run_env t ~ctx p config
  | Protocol.Scenarios -> (scenarios_payload (), false)
  | Protocol.Stats -> (stats_payload t, false)

let handle t job =
  let req = job.request in
  let kname = Protocol.kind_name req.Protocol.kind in
  let started = Cdr_obs.Clock.monotonic () in
  let hits0 = Cdr.Solver_cache.hits t.cache and misses0 = Cdr.Solver_cache.misses t.cache in
  (* per-stage durations accumulate here and flush at [finish], once the
     outcome is known, so every serve.stage_seconds series carries the same
     (kind, status) labels as the request counter — the end-to-end chain
     queue_wait -> [hold] -> solve -> serialize of one request always lands
     under one outcome code *)
  let stages = ref [ ("queue_wait", started -. job.admitted) ] in
  let stage name seconds = stages := (name, seconds) :: !stages in
  let finish status response =
    let t0 = Cdr_obs.Clock.monotonic () in
    job.reply response;
    let now = Cdr_obs.Clock.monotonic () in
    stage "serialize" (now -. t0);
    let labels = ("kind", kname) :: ("status", status) :: t.labels in
    List.iter
      (fun (s, dt) ->
        Cdr_obs.Metrics.observe
          ~labels:(("stage", s) :: labels)
          ~base:2.0 "serve.stage_seconds" dt)
      (List.rev !stages);
    Cdr_obs.Metrics.observe ~labels ~base:2.0 "serve.latency_seconds" (now -. started);
    let dh = Cdr.Solver_cache.hits t.cache - hits0 in
    let dm = Cdr.Solver_cache.misses t.cache - misses0 in
    if dh > 0 then
      Cdr_obs.Metrics.add ~labels:[ ("kind", kname); ("result", "hit") ] "serve.setup_cache" dh;
    if dm > 0 then
      Cdr_obs.Metrics.add ~labels:[ ("kind", kname); ("result", "miss") ] "serve.setup_cache" dm;
    (* the engine's own cache, not the last one mutated: warm sweeps build
       private per-chunk caches that die with the request *)
    Cdr_obs.Metrics.set_gauge ~labels:t.labels "solver_cache.entries"
      (float_of_int (Cdr.Solver_cache.length t.cache));
    Cdr_obs.Metrics.set_gauge ~labels:t.labels "solver_cache.bytes"
      (float_of_int (Cdr.Solver_cache.bytes t.cache));
    Cdr_obs.Metrics.incr "serve.requests" ~labels
  in
  let fail code message =
    finish (Protocol.code_string code)
      (Protocol.error_response ~id:req.Protocol.id ~code ~message ())
  in
  Cdr_obs.Span.with_ ~name:"serve.request"
    ~attrs:[ ("id", req.Protocol.id); ("kind", kname) ]
    (fun () ->
      (* hold_ms simulates a slow request (load tests); it burns deadline *)
      (match req.Protocol.hold_ms with
      | Some ms ->
          let (), dt = Cdr_obs.Span.timed ~name:"serve.hold" (fun () -> Unix.sleepf (ms /. 1000.)) in
          stage "hold" dt
      | None -> ());
      let expired () =
        match job.deadline with Some d -> Cdr_obs.Clock.monotonic () >= d | None -> false
      in
      if expired () then fail `Timeout "deadline exceeded before solve"
      else
        (* result memoization, in front of config validation and solving:
           a repeated identical request replays the stored response under
           its own id (byte-identical to the cold solve, see
           {!Result_cache}) and never touches the model layer *)
        let memo_key =
          match t.results with Some _ -> Protocol.cache_key req | None -> None
        in
        let memo_hit =
          match (memo_key, t.results) with
          | Some key, Some rc -> Result_cache.find rc key
          | _ -> None
        in
        match memo_hit with
        | Some stored -> finish "ok" (Protocol.response_with_id stored req.Protocol.id)
        | None -> (
        match Params.to_config req.Protocol.params with
        | Error msg -> fail `Bad_request msg
        | Ok config -> (
            let cancel =
              Option.map (fun d () -> Cdr_obs.Clock.monotonic () >= d) job.deadline
            in
            let ctx =
              Cdr.Context.make ?pool:t.pool ~cache:t.cache
                ~backend:req.Protocol.params.Params.backend ?cancel ()
            in
            (* attribute this request's setup-cache traffic to its structure
               key for the labeled solver_cache.* series *)
            Cdr.Solver_cache.set_request_key t.cache
              (Some (Params.structure_key req.Protocol.params));
            let run () =
              Fun.protect
                ~finally:(fun () -> Cdr.Solver_cache.set_request_key t.cache None)
                (fun () ->
                  Cdr_obs.Span.timed ~name:"serve.solve" (fun () -> run_kind t ~ctx req config))
            in
            match run () with
            | (payload, degraded), dt ->
                stage "solve" dt;
                let response =
                  Protocol.ok_response ~id:req.Protocol.id ~kind:req.Protocol.kind ~degraded
                    ~cache_hits:(Cdr.Solver_cache.hits t.cache - hits0)
                    ~cache_misses:(Cdr.Solver_cache.misses t.cache - misses0)
                    ~elapsed_ms:((Cdr_obs.Clock.monotonic () -. started) *. 1e3)
                    payload
                in
                (match (memo_key, t.results) with
                | Some key, Some rc ->
                    Result_cache.store rc key (Protocol.response_sans_id response)
                | _ -> ());
                finish "ok" response
            | exception Unsupported msg -> fail `Bad_request msg
            | exception Markov.Multigrid.Cancelled ->
                fail `Timeout "deadline exceeded during solve"
            | exception exn -> fail `Internal (Printexc.to_string exn))))

let process t jobs =
  (* group by structure key so same-structure requests run back to back and
     amortize the shared setup cache / model refill; first-arrival order is
     kept between groups and within each group *)
  let t0 = Cdr_obs.Clock.monotonic () in
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun j ->
      let key = Params.structure_key j.request.Protocol.params in
      match Hashtbl.find_opt tbl key with
      | Some group -> group := j :: !group
      | None ->
          Hashtbl.add tbl key (ref [ j ]);
          order := key :: !order)
    jobs;
  Cdr_obs.Metrics.observe
    ~labels:[ ("stage", "batch_formation") ]
    ~base:2.0 "serve.stage_seconds"
    (Cdr_obs.Clock.monotonic () -. t0);
  List.iter
    (fun key ->
      let group = List.rev !(Hashtbl.find tbl key) in
      Cdr_obs.Metrics.observe "serve.batch_size" (float_of_int (List.length group));
      List.iter (handle t) group)
    (List.rev !order)
