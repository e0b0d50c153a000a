(* Traced in-process replay of a perfbench request stream.

   Replays the JSONL lines a benchmark run sent to cdr_serve through the
   public functions of each layer, in the order Cdr_svc.Engine.handle calls
   them, and records one span per call: name, start, end, parent span and
   request id. Every request is also run through Engine.handle on a separate
   engine with its own caches, right before or after the traced path, so the
   spans can be set against the whole they decompose (coverage) and the
   traced path against the untraced one (overhead) under the same machine
   conditions, and both answers must agree. Nothing in lib/ is instrumented:
   every span wraps a call from outside. Spans stay in memory and are
   written as JSONL at the end, with a JSON report of the whole-request
   timings and the out-of-line microbenchmarks (per-call protocol, params
   and result-cache costs over the same requests; the CSR against Kronecker
   operator apply on the default-grid chain). *)

module J = Cdr_obs.Jsonl
open Cdr_svc

let now = Cdr_obs.Clock.monotonic
let num f = J.Num f
let int_num i = J.Num (float_of_int i)

(* ---------- spans ---------- *)

type span = {
  sid : int;
  parent : int;
  rid : int;
  name : string;
  start : float;
  mutable stop : float;
  mutable attrs : (string * J.t) list;
}

let spans = ref []
let next_sid = ref 0
let open_spans = ref []
let current_rid = ref (-1)

let with_span name f =
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  let s = { sid = !next_sid; parent; rid = !current_rid; name; start = now (); stop = 0.; attrs = [] } in
  incr next_sid;
  open_spans := s.sid :: !open_spans;
  let close () =
    s.stop <- now ();
    open_spans := List.tl !open_spans;
    spans := s :: !spans
  in
  match f s with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let span name f = with_span name (fun _ -> f ())
let attr s k v = s.attrs <- (k, v) :: s.attrs

let span_json s =
  J.Obj
    [
      ("rid", int_num s.rid);
      ("sid", int_num s.sid);
      ("parent", int_num s.parent);
      ("name", J.Str s.name);
      ("start", num s.start);
      ("end", num s.stop);
      ("attrs", J.Obj (List.rev s.attrs));
    ]

(* ---------- the engine's request path, one span per layer call ---------- *)

(* what one worker replica keeps between requests (Engine.t's fields) *)
type replica = {
  cache : Cdr.Solver_cache.t;
  mutable last_model : (string * Cdr.Model.t) option;
  mutable last_kron : (string * Cdr.Kron_model.t) option;
  mutable last_env : (string * Cdr_env.Composed.t) option;
}

let degraded_retries = ref 0

let init_for (ctx : Cdr.Context.t) n =
  match ctx.Cdr.Context.init with Some v when Array.length v = n -> Some v | _ -> None

let with_degraded_retry (ctx : Cdr.Context.t) solve =
  let first = solve ctx in
  if (snd first).Markov.Solution.converged then (first, false)
  else begin
    incr degraded_retries;
    let ctx =
      Cdr.Context.override ~tol:(ctx.Cdr.Context.tol *. 1e3)
        ~init:(snd first).Markov.Solution.pi ctx
    in
    (solve ctx, true)
  end

let get_model r p config =
  let key = Params.model_key p in
  let model =
    match r.last_model with
    | Some (k, m) when k = key ->
        with_span "model.rebuild" (fun s ->
            let m, reused = Cdr.Model.rebuild m config in
            attr s "reused" (J.Bool reused);
            m)
    | _ -> span "model.build" (fun () -> Cdr.Model.build config)
  in
  r.last_model <- Some (key, model);
  model

(* Model.solve with the service's setup cache, split into the cache lookup
   (a Multigrid.setup on a miss) and the V-cycles *)
let csr_solve r (ctx : Cdr.Context.t) (model : Cdr.Model.t) =
  let chain = model.Cdr.Model.chain in
  let setup =
    with_span "multigrid.setup" (fun s ->
        let misses = Cdr.Solver_cache.misses r.cache in
        let setup =
          Cdr.Solver_cache.setup r.cache ~smoother:ctx.Cdr.Context.smoother
            ~hierarchy:(fun () -> Cdr.Model.hierarchy model)
            chain
        in
        attr s "miss" (J.Bool (Cdr.Solver_cache.misses r.cache > misses));
        setup)
  in
  let init = init_for ctx model.Cdr.Model.n_states in
  with_span "multigrid.solve" (fun s ->
      let sol, stats =
        Markov.Multigrid.solve_with ~tol:ctx.Cdr.Context.tol ?init ?trace:ctx.Cdr.Context.trace
          ?pool:ctx.Cdr.Context.pool ?cancel:ctx.Cdr.Context.cancel setup chain
      in
      attr s "cycles" (int_num stats.Markov.Multigrid.cycles);
      attr s "converged" (J.Bool sol.Markov.Solution.converged);
      sol)

(* Report.run_model on an already built model *)
let analyze_csr r ~ctx p config =
  let model = get_model r p config in
  let (summary, sol), degraded =
    with_degraded_retry ctx (fun ctx ->
        let trace = Cdr_obs.Trace.create ~name:"multigrid" () in
        let ctx = Cdr.Context.override ~trace ctx in
        let t0 = now () in
        let sol = csr_solve r ctx model in
        let ber =
          span "ber" (fun () ->
              let rho = Cdr.Model.phase_marginal model ~pi:sol.Markov.Solution.pi in
              let cfg = model.Cdr.Model.config in
              ignore (Sys.opaque_identity (Cdr.Ber.eye_density cfg ~rho));
              Cdr.Ber.of_marginal cfg ~rho)
        in
        let solve_seconds = now () -. t0 in
        let iterations =
          match Cdr_obs.Trace.last_iter trace with
          | 0 -> sol.Markov.Solution.iterations
          | n -> n
        in
        ((ber, iterations, solve_seconds), sol))
  in
  let ber, iterations, solve_seconds = summary in
  let mtbf =
    span "cycle_slip" (fun () ->
        Cdr.Cycle_slip.mean_time_between model ~pi:sol.Markov.Solution.pi)
  in
  ( J.Obj
      [
        ("ber", num ber);
        ("size", int_num model.Cdr.Model.n_states);
        ("iterations", int_num iterations);
        ("solve_seconds", num solve_seconds);
        ("mean_bits_between_slips", num mtbf);
      ],
    degraded )

let get_kron_model r p config =
  let key = Params.model_key p in
  let model = span "kron_model.build" (fun () -> Cdr.Kron_model.build config) in
  (match r.last_kron with
  | Some (k, prev) when k = key -> (
      match prev.Cdr.Kron_model.iad with
      | Some s when Markov.Op_multigrid.matches s model.Cdr.Kron_model.op ->
          model.Cdr.Kron_model.iad <- Some s
      | _ -> ())
  | _ -> ());
  r.last_kron <- Some (key, model);
  model

(* Kron_model.solve ~solver:`Multigrid, split into the IAD setup and the
   outer cycles *)
let kron_solve (ctx : Cdr.Context.t) (model : Cdr.Kron_model.t) =
  match span "kron_model.hierarchy" (fun () -> Cdr.Kron_model.hierarchy model) with
  | [] -> span "kron_model.solve" (fun () -> Cdr.Kron_model.solve ~solver:`Multigrid ~ctx model)
  | partition :: coarse_hierarchy ->
      let op = model.Cdr.Kron_model.op in
      let setup =
        match model.Cdr.Kron_model.iad with
        | Some s when Markov.Op_multigrid.matches s op -> s
        | _ ->
            span "op_multigrid.setup" (fun () ->
                let s = Markov.Op_multigrid.prepare ~coarse_hierarchy ~partition op in
                model.Cdr.Kron_model.iad <- Some s;
                s)
      in
      let init = init_for ctx model.Cdr.Kron_model.n_states in
      with_span "op_multigrid.solve" (fun s ->
          let sol, stats =
            Markov.Op_multigrid.solve_with ~tol:ctx.Cdr.Context.tol ?init
              ?trace:ctx.Cdr.Context.trace ?pool:ctx.Cdr.Context.pool
              ?cancel:ctx.Cdr.Context.cancel setup op
          in
          attr s "cycles" (int_num stats.Markov.Op_multigrid.cycles);
          attr s "converged" (J.Bool sol.Markov.Solution.converged);
          sol)

let analyze_kron r ~ctx p config =
  let model = get_kron_model r p config in
  let t0 = now () in
  let ((), sol), degraded = with_degraded_retry ctx (fun ctx -> ((), kron_solve ctx model)) in
  let solve_seconds = now () -. t0 in
  let pi = sol.Markov.Solution.pi in
  let ber =
    span "ber" (fun () -> Cdr.Ber.of_marginal config ~rho:(Cdr.Kron_model.phase_marginal model ~pi))
  in
  let mtbf = span "cycle_slip" (fun () -> Cdr.Kron_model.mean_time_between_slips model ~pi) in
  ( J.Obj
      [
        ("ber", num ber);
        ("size", int_num (Cdr.Kron_model.n_states model));
        ("iterations", int_num sol.Markov.Solution.iterations);
        ("solve_seconds", num solve_seconds);
        ("mean_bits_between_slips", num mtbf);
      ],
    degraded )

let slip r ~ctx p config =
  let model = get_model r p config in
  let ((), sol), degraded = with_degraded_retry ctx (fun ctx -> ((), csr_solve r ctx model)) in
  let pi = sol.Markov.Solution.pi in
  let rate, between =
    span "cycle_slip" (fun () ->
        (Cdr.Cycle_slip.rate model ~pi, Cdr.Cycle_slip.mean_time_between model ~pi))
  in
  let first = span "passage.first_slip" (fun () -> Cdr.Cycle_slip.mean_first_slip_time model) in
  ( J.Obj
      [
        ("slip_rate", num rate);
        ("mean_bits_between_slips", num between);
        ("mean_bits_to_first_slip", num first);
      ],
    degraded )

let point_json ~key ~value (pt : Cdr.Sweep.point) =
  J.Obj
    [
      (key, value);
      ("ber", num pt.Cdr.Sweep.report.Cdr.Report.ber);
      ("iterations", int_num pt.Cdr.Sweep.report.Cdr.Report.iterations);
    ]

let sweep ~ctx p config lengths =
  with_span "sweep" (fun s ->
      let ctx = Cdr.Context.override ~strategy:Cdr.Context.warm ctx in
      let points = Cdr.Sweep.counter_lengths ~solver:p.Params.solver ~ctx config lengths in
      let best_k, best_ber = Cdr.Sweep.optimal_of_points points in
      attr s "points" (int_num (List.length points));
      ( J.Obj
          [
            ( "points",
              J.List
                (List.map
                   (fun pt ->
                     point_json ~key:"counter"
                       ~value:(int_num pt.Cdr.Sweep.config.Cdr.Config.counter_length)
                       pt)
                   points) );
            ("optimal", J.Obj [ ("counter", int_num best_k); ("ber", num best_ber) ]);
          ],
        false ))

let sigma ~ctx p config values =
  with_span "sweep" (fun s ->
      let ctx = Cdr.Context.override ~strategy:Cdr.Context.warm ctx in
      let points = Cdr.Sweep.sigma_w_values ~solver:p.Params.solver ~ctx config values in
      attr s "points" (int_num (List.length points));
      ( J.Obj
          [
            ( "points",
              J.List
                (List.map
                   (fun pt ->
                     point_json ~key:"sigma_w" ~value:(num pt.Cdr.Sweep.config.Cdr.Config.sigma_w)
                       pt)
                   points) );
          ],
        false ))

let get_env_model r p config env =
  let key =
    Printf.sprintf "%s|%h|%h|%h|%h|%s|%s" (Params.model_key p) p.Params.sigma_w
      p.Params.drift_mean p.Params.p01 p.Params.p10
      (Params.string_of_backend p.Params.backend)
      (J.to_string (Cdr_env.Env.to_json env))
  in
  let model =
    match r.last_env with
    | Some (k, m) when k = key -> m
    | prev ->
        let m =
          span "composed.build" (fun () ->
              Cdr_env.Composed.build ~backend:p.Params.backend env config)
        in
        (match prev with
        | Some (_, old) -> (
            match old.Cdr_env.Composed.iad with
            | Some s when Markov.Op_multigrid.matches s m.Cdr_env.Composed.op ->
                m.Cdr_env.Composed.iad <- Some s
            | _ -> ())
        | None -> ());
        m
  in
  r.last_env <- Some (key, model);
  model

let env r ~ctx p config =
  let env = match p.Params.env with Some e -> e | None -> failwith "env request without env" in
  let model = get_env_model r p config env in
  let solver = (p.Params.solver :> Cdr_env.Composed.solver) in
  let t0 = now () in
  let ((), sol), degraded =
    with_degraded_retry ctx (fun ctx ->
        ((), span "composed.solve" (fun () -> Cdr_env.Composed.solve ~solver ~ctx model)))
  in
  let solve_seconds = now () -. t0 in
  let pi = sol.Markov.Solution.pi in
  span "composed.functionals" (fun () ->
      let probs = Cdr_env.Composed.regime_probs model ~pi in
      let regime_ber = Cdr_env.Composed.regime_ber model ~pi in
      ( J.Obj
          [
            ("ber", num (Cdr_env.Composed.ber model ~pi));
            ("size", int_num model.Cdr_env.Composed.n_states);
            ("iterations", int_num sol.Markov.Solution.iterations);
            ("solve_seconds", num solve_seconds);
            ("slip_rate", num (Cdr_env.Composed.slip_rate model ~pi));
            ("mean_bits_between_slips", num (Cdr_env.Composed.mean_bits_between_slips model ~pi));
            ( "regimes",
              J.List
                (Array.to_list
                   (Array.mapi
                      (fun e (g : Cdr_env.Env.regime) ->
                        J.Obj
                          [
                            ("name", J.Str g.Cdr_env.Env.name);
                            ("prob", num probs.(e));
                            ("ber", num regime_ber.(e));
                          ])
                      model.Cdr_env.Composed.env.Cdr_env.Env.regimes)) );
          ],
        degraded ))

let scenarios () =
  span "scenarios" (fun () ->
      ( J.Obj
          [
            ( "scenarios",
              J.List
                (List.map
                   (fun (s : Cdr.Scenario.t) ->
                     J.Obj
                       [
                         ("name", J.Str s.Cdr.Scenario.name);
                         ("description", J.Str s.Cdr.Scenario.description);
                         ("ber_specification", J.Num s.Cdr.Scenario.ber_specification);
                         ("params", Params.to_json (Params.of_scenario s));
                       ])
                   Cdr.Scenario.all) );
          ],
        false ))

let run_kind r ~ctx (req : Protocol.request) config =
  let p = req.Protocol.params in
  match (req.Protocol.kind, p.Params.backend, p.Params.solver) with
  | Protocol.Analyze, `Kron, `Multigrid -> analyze_kron r ~ctx p config
  | Protocol.Analyze, `Csr, `Multigrid -> analyze_csr r ~ctx p config
  | Protocol.Slip, `Csr, `Multigrid -> slip r ~ctx p config
  | Protocol.Sweep lengths, `Csr, _ -> sweep ~ctx p config lengths
  | Protocol.Sigma values, `Csr, _ -> sigma ~ctx p config values
  | Protocol.Env, _, `Multigrid -> env r ~ctx p config
  | Protocol.Scenarios, _, _ -> scenarios ()
  | _ -> failwith ("the replay does not cover this request: " ^ Protocol.kind_name req.Protocol.kind)

let serialize response =
  with_span "jsonl.serialize" (fun s ->
      let line = J.to_string response in
      attr s "bytes" (int_num (String.length line));
      line)

let traced r results line =
  match span "protocol.parse" (fun () -> Protocol.parse_request line) with
  | Error (id, message) ->
      serialize
        (span "protocol.error_response" (fun () ->
             Protocol.error_response ?id ~code:`Bad_request ~message ()))
  | Ok req -> (
      let started = now () in
      let hits0 = Cdr.Solver_cache.hits r.cache and misses0 = Cdr.Solver_cache.misses r.cache in
      let memo_key =
        match results with
        | Some _ -> span "protocol.cache_key" (fun () -> Protocol.cache_key req)
        | None -> None
      in
      let memo_hit =
        match (memo_key, results) with
        | Some key, Some rc -> span "result_cache.find" (fun () -> Result_cache.find rc key)
        | _ -> None
      in
      match memo_hit with
      | Some stored ->
          serialize
            (span "protocol.ok_response" (fun () ->
                 Protocol.response_with_id stored req.Protocol.id))
      | None -> (
          match span "params.to_config" (fun () -> Params.to_config req.Protocol.params) with
          | Error message ->
              serialize (Protocol.error_response ~id:req.Protocol.id ~code:`Bad_request ~message ())
          | Ok config ->
              let ctx =
                Cdr.Context.make ~cache:r.cache ~smoother:req.Protocol.params.Params.smoother
                  ~backend:req.Protocol.params.Params.backend ()
              in
              let payload, degraded = run_kind r ~ctx req config in
              let response =
                span "protocol.ok_response" (fun () ->
                    Protocol.ok_response ~id:req.Protocol.id ~kind:req.Protocol.kind ~degraded
                      ~cache_hits:(Cdr.Solver_cache.hits r.cache - hits0)
                      ~cache_misses:(Cdr.Solver_cache.misses r.cache - misses0)
                      ~elapsed_ms:((now () -. started) *. 1e3)
                      payload)
              in
              (match (memo_key, results) with
              | Some key, Some rc ->
                  span "result_cache.store" (fun () ->
                      Result_cache.store rc key (Protocol.response_sans_id response))
              | _ -> ());
              serialize response))

(* ---------- microbenchmarks over the replayed requests ---------- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per_call_us reps f =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int reps *. 1e6

(* seconds per call: batches sized to ~20 ms, median of seven *)
let per_apply f =
  f ();
  let t0 = now () in
  f ();
  let reps = max 1 (int_of_float (0.02 /. Float.max 1e-6 (now () -. t0))) in
  median
    (List.init 7 (fun _ ->
         let t0 = now () in
         for _ = 1 to reps do
           f ()
         done;
         (now () -. t0) /. float_of_int reps))

let micro lines responses =
  let replayed =
    List.filter (fun i -> responses.(i) <> None) (List.init (Array.length responses) Fun.id)
  in
  let reqs =
    List.filter_map
      (fun i -> match Protocol.parse_request lines.(i) with Ok r -> Some (i, r) | Error _ -> None)
      replayed
  in
  let parse_us =
    List.map (fun i -> per_call_us 50 (fun () -> Protocol.parse_request lines.(i))) replayed
  in
  let key_us = List.map (fun (_, r) -> per_call_us 50 (fun () -> Protocol.cache_key r)) reqs in
  let config_us =
    List.map (fun (_, r) -> per_call_us 20 (fun () -> Params.to_config r.Protocol.params)) reqs
  in
  let rc = Result_cache.create ~capacity:4096 () in
  let finds = ref [] and stores = ref [] and hits = ref 0 and lookups = ref 0 in
  List.iter
    (fun (i, r) ->
      match Protocol.cache_key r with
      | None -> ()
      | Some key -> (
          incr lookups;
          let t0 = now () in
          let found = Result_cache.find rc key in
          finds := ((now () -. t0) *. 1e6) :: !finds;
          match (found, responses.(i)) with
          | Some _, _ -> incr hits
          | None, Some line -> (
              match J.of_string line with
              | json when Protocol.response_ok json ->
                  let stored = Protocol.response_sans_id json in
                  let t0 = now () in
                  Result_cache.store rc key stored;
                  stores := ((now () -. t0) *. 1e6) :: !stores
              | _ -> ())
          | None, None -> ()))
    reqs;
  J.Obj
    [
      ("protocol.parse_us", num (median parse_us));
      ("protocol.cache_key_us", num (median key_us));
      ("params.to_config_us", num (median config_us));
      ("result_cache.find_us", num (median !finds));
      ("result_cache.store_us", num (median !stores));
      ("result_cache.lookups", int_num !lookups);
      ("result_cache.hits", int_num !hits);
    ]

(* Cdr_op.vec_mul_into on the Kronecker operator against
   Sparse.Csr.vec_mul_into on the materialized chain of one configuration.
   Bytes are computed, not measured: CSR reads values and int column
   indices (16 B per nonzero) and the row pointers, reads x and writes y;
   each Kronecker term copies x into the workspace, makes one read/write
   pass per factor (three: data, counter, phase) and accumulates into y. *)
let kron_gap sigma_w =
  let config =
    match Params.to_config { Params.default with Params.sigma_w } with
    | Ok c -> c
    | Error msg -> failwith msg
  in
  let model = Cdr.Model.build config in
  let tpm = Markov.Chain.tpm model.Cdr.Model.chain in
  let n = model.Cdr.Model.n_states and nnz = Sparse.Csr.nnz tpm in
  let x = Array.make n (1. /. float_of_int n) and y = Array.make n 0. in
  let csr_s = per_apply (fun () -> Sparse.Csr.vec_mul_into x tpm y) in
  let km = Cdr.Kron_model.build config in
  let op = Cdr.Kron_model.operator km in
  let nk = Cdr_op.dim op in
  let xk = Array.make nk (1. /. float_of_int nk) and yk = Array.make nk 0. in
  let kron_s = per_apply (fun () -> Cdr_op.vec_mul_into op xk yk) in
  let terms = Sparse.Kron_op.n_terms km.Cdr.Kron_model.kron in
  let fn = float_of_int in
  J.Obj
    [
      ("csr.states", int_num n);
      ("csr.nnz", int_num nnz);
      ("csr.spmv_s", num csr_s);
      ("csr.spmv_ns_per_nnz", num (csr_s *. 1e9 /. fn nnz));
      ("csr.spmv_bytes", num ((16. *. fn nnz) +. (8. *. fn (n + 1)) +. (16. *. fn n)));
      ("kron_op.states", int_num nk);
      ("kron_op.terms", int_num terms);
      ("kron_op.nnz_estimate", int_num (Cdr_op.nnz_estimate op));
      ("kron_op.apply_s", num kron_s);
      ("kron_op.apply_ns_per_state", num (kron_s *. 1e9 /. fn nk));
      ("kron_op.apply_bytes", num ((fn terms *. 88. *. fn nk) +. (8. *. fn nk)));
      ("kron_gap.apply_ratio", num (kron_s /. csr_s));
    ]

(* ---------- driver ---------- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
  let lines = Array.of_list (List.rev (go [])) in
  close_in ic;
  lines

let write_file path f =
  let oc = open_out path in
  f oc;
  close_out oc

let () =
  let stream = ref "" and spans_out = ref "" and report_out = ref "" in
  let replicas = ref 1 and cache = ref 0 and budget = ref 10.0 and tail_from = ref max_int in
  let min_lines = ref 0 in
  Arg.parse
    [
      ("--stream", Arg.Set_string stream, "FILE request lines, in the order they were sent");
      ("--spans", Arg.Set_string spans_out, "FILE span JSONL output");
      ("--report", Arg.Set_string report_out, "FILE JSON report output");
      ("--replicas", Arg.Set_int replicas, "N worker replicas to route across (as cdr_serve)");
      ("--result-cache", Arg.Set_int cache, "CAP result-cache capacity, 0 for none");
      ("--tail-from", Arg.Set_int tail_from, "I first line that is always replayed");
      ("--budget", Arg.Set_float budget, "S seconds to spend on lines before --tail-from");
      ("--min-lines", Arg.Set_int min_lines, "K lines replayed whatever the budget");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "replay --stream FILE --spans FILE --report FILE [options]";
  if !stream = "" || !spans_out = "" || !report_out = "" then begin
    prerr_endline "replay: --stream, --spans and --report are required";
    exit 2
  end;
  let lines = read_lines !stream in
  let n = Array.length lines in
  (* one result cache in front of every replica, as the router keeps it;
     the traced path and the engines each get their own *)
  let new_results () =
    if !cache > 0 then Some (Result_cache.create ~capacity:!cache ()) else None
  in
  let results = new_results () in
  let replicas_state =
    Array.init !replicas (fun _ ->
        { cache = Cdr.Solver_cache.create (); last_model = None; last_kron = None; last_env = None })
  in
  let engine_results = new_results () in
  let engines = Array.init !replicas (fun _ -> Engine.create ?results:engine_results ()) in
  let route line =
    match Protocol.parse_request line with
    | Ok req -> (
        match Router.route ~replicas:!replicas (Params.structure_key req.Protocol.params) with
        | Some i -> i
        | None -> 0)
    | Error _ -> 0
  in
  let responses = Array.make n None in
  let rows = ref [] in
  let replay_one i =
    let line = lines.(i) in
    let r = route line in
    current_rid := i;
    let run_traced () =
      let t0 = now () in
      let out =
        with_span "request" (fun s ->
            attr s "replica" (int_num r);
            try traced replicas_state.(r) results line
            with e ->
              J.to_string
                (Protocol.error_response ~code:`Internal ~message:(Printexc.to_string e) ()))
      in
      (out, now () -. t0)
    in
    let run_engine () =
      match Protocol.parse_request line with
      | Error _ -> None (* answered by the transport; never reaches the engine *)
      | Ok request ->
          let out = ref "" in
          let t0 = now () in
          Engine.handle engines.(r)
            { Engine.request; deadline = None; admitted = t0; reply = (fun j -> out := J.to_string j) };
          Some (!out, now () -. t0)
    in
    (* alternate which side runs first, so neither always finds the CPU
       caches warmed by the other *)
    let (traced_line, traced_s), engine =
      if i mod 2 = 0 then
        let t = run_traced () in
        (t, run_engine ())
      else
        let e = run_engine () in
        (run_traced (), e)
    in
    responses.(i) <- Some traced_line;
    rows :=
      J.Obj
        ([
           ("rid", int_num i);
           ("replica", int_num r);
           ("traced_s", num traced_s);
           ("response", J.Str traced_line);
         ]
        @
        match engine with
        | Some (line, dt) -> [ ("handle_s", num dt); ("engine_response", J.Str line) ]
        | None -> [])
      :: !rows
  in
  let t_start = now () in
  let window_done = ref 0 in
  for i = 0 to n - 1 do
    if i >= !tail_from || i < !min_lines || now () -. t_start < !budget then begin
      replay_one i;
      if i < !tail_from then incr window_done
    end
  done;
  let replay_s = now () -. t_start in
  write_file !spans_out (fun oc ->
      List.iter
        (fun s ->
          output_string oc (J.to_string (span_json s));
          output_char oc '\n')
        (List.rev !spans));
  let count f = Array.fold_left (fun a r -> a + f r.cache) 0 replicas_state in
  write_file !report_out (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("lines", int_num n);
                ("window_replayed", int_num !window_done);
                ("replay_s", num replay_s);
                ("requests", J.List (List.rev !rows));
                ("degraded_retries", int_num !degraded_retries);
                ( "solver_cache",
                  J.Obj
                    [
                      ("hits", int_num (count Cdr.Solver_cache.hits));
                      ("misses", int_num (count Cdr.Solver_cache.misses));
                    ] );
                ("micro", micro lines responses);
                ("gap", kron_gap 0.06);
              ]));
      output_char oc '\n')
