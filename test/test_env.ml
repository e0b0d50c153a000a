(* Tests for the Markov-modulated jitter environments (Cdr_env) and the
   versioned request schema that carries them: identity composition bitwise
   against the base chain, CSR/Kron backend parity, the slow-switching
   mixture limit, the environment JSON codec, v1/v2 params equivalence
   (shared cache keys, p_transition alias, scenario seeding, deprecation
   counting), protocol-level env-field placement, and golden v1 request
   fixtures replayed byte-identically through the result cache. *)

module Env = Cdr_env.Env
module Composed = Cdr_env.Composed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

let rel_close ~tol a b = Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

let tiny_params =
  { Cdr_svc.Params.default with Cdr_svc.Params.grid = 32; phases = 16; counter = 2 }

let tiny_cfg =
  match Cdr_svc.Params.to_config tiny_params with
  | Ok cfg -> cfg
  | Error msg -> failwith ("tiny config invalid: " ^ msg)

(* ---------- composition ---------- *)

let partition_maps h = List.map (fun (p : Markov.Partition.t) -> p.Markov.Partition.map) h

let test_identity_bitwise () =
  let base = Cdr.Model.build_direct tiny_cfg in
  let composed = Composed.build Env.identity tiny_cfg in
  check_int "same state count" base.Cdr.Model.n_states composed.Composed.n_states;
  (* both representations coarsen through the base chain's code *)
  let keyed = partition_maps (Cdr.Model.hierarchy base) in
  check_bool "csr hierarchy is non-trivial" true (keyed <> []);
  check_bool "csr hierarchy maps equal" true (keyed = partition_maps (Composed.hierarchy composed));
  let box = partition_maps (Cdr.Kron_model.hierarchy (Cdr.Kron_model.build tiny_cfg)) in
  check_bool "kron hierarchy is non-trivial" true (box <> []);
  let kron = Composed.build ~backend:`Kron Env.identity tiny_cfg in
  check_bool "kron hierarchy maps equal" true (box = partition_maps (Composed.hierarchy kron));
  match composed.Composed.repr with
  | Composed.Kron _ -> Alcotest.fail "identity composition built kron on the csr backend"
  | Composed.Chain chain ->
      let a = Markov.Chain.tpm base.Cdr.Model.chain and b = Markov.Chain.tpm chain in
      check_bool "row pointers equal" true (a.Sparse.Csr.row_ptr = b.Sparse.Csr.row_ptr);
      check_bool "column indices equal" true (a.Sparse.Csr.col_idx = b.Sparse.Csr.col_idx);
      check_bool "values bitwise equal" true (bits_equal a.Sparse.Csr.values b.Sparse.Csr.values)

let test_backend_parity () =
  let env = Env.bursty () in
  let c = Composed.build ~backend:`Csr env tiny_cfg in
  let k = Composed.build ~backend:`Kron env tiny_cfg in
  check_int "state counts agree" c.Composed.n_states k.Composed.n_states;
  let pc = (Composed.solve c).Markov.Solution.pi in
  let pk = (Composed.solve k).Markov.Solution.pi in
  check_bool "ber parity" true
    (rel_close ~tol:1e-6 (Composed.ber c ~pi:pc) (Composed.ber k ~pi:pk));
  check_bool "slip parity" true
    (rel_close ~tol:1e-6 (Composed.slip_rate c ~pi:pc) (Composed.slip_rate k ~pi:pk));
  let qc = Composed.regime_probs c ~pi:pc and qk = Composed.regime_probs k ~pi:pk in
  Array.iteri
    (fun e p -> check_bool "regime marginal parity" true (rel_close ~tol:1e-6 p qk.(e)))
    qc;
  (* both must match the switching chain's own stationary law *)
  let exact = Env.stationary env in
  Array.iteri
    (fun e p -> check_bool "regime marginal exact" true (rel_close ~tol:1e-6 p exact.(e)))
    qc

let test_slow_switching_mixture_limit () =
  (* dwell times ~1e5 bits: the loop re-equilibrates within each regime, so
     the exact composed BER approaches the stationary-weighted mixture *)
  let env = Env.bursty ~p_enter:2e-6 ~p_exit:1e-5 () in
  let composed = Composed.build env tiny_cfg in
  let pi = (Composed.solve composed).Markov.Solution.pi in
  let exact = Composed.ber composed ~pi in
  let _, mixture = Composed.mixture_ber composed in
  check_bool "slow switching approaches the mixture" true (rel_close ~tol:0.02 exact mixture);
  (* and fast switching must NOT be mixture-like: the gap is the point *)
  let fast = Composed.build (Env.bursty ()) tiny_cfg in
  let pi_f = (Composed.solve fast).Markov.Solution.pi in
  let exact_f = Composed.ber fast ~pi:pi_f in
  let _, mixture_f = Composed.mixture_ber fast in
  check_bool "fast switching diverges from the mixture" true
    (not (rel_close ~tol:0.02 exact_f mixture_f))

let test_env_json_roundtrip () =
  List.iter
    (fun (name, e) ->
      match Env.of_json (Env.to_json e) with
      | Error msg -> Alcotest.failf "%s roundtrip rejected: %s" name msg
      | Ok e' -> check_bool (name ^ " roundtrips") true (Env.equal e e'))
    Env.presets;
  (match Env.of_json (Cdr_obs.Jsonl.Str "bursty") with
  | Ok e -> check_bool "bare preset name accepted" true (Env.equal e (Env.bursty ()))
  | Error msg -> Alcotest.failf "preset name rejected: %s" msg);
  (match Env.of_json (Cdr_obs.Jsonl.Str "frobnicate") with
  | Ok _ -> Alcotest.fail "unknown preset accepted"
  | Error _ -> ());
  match
    Env.of_json
      (match Env.to_json (Env.bursty ()) with
      | Cdr_obs.Jsonl.Obj fields -> Cdr_obs.Jsonl.Obj (("frob", Cdr_obs.Jsonl.Num 1.) :: fields)
      | j -> j)
  with
  | Ok _ -> Alcotest.fail "unknown env field accepted"
  | Error _ -> ()

(* ---------- versioned params codec ---------- *)

let parse = Cdr_svc.Protocol.parse_request

let parse_ok line =
  match parse line with
  | Ok req -> req
  | Error (_, msg) -> Alcotest.failf "rejected: %s (%s)" msg line

let test_v1_v2_equivalence () =
  let v1 =
    parse_ok
      "{\"id\":\"a\",\"kind\":\"analyze\",\"params\":{\"grid\":32,\"phases\":16,\"counter\":2,\"sigma_w\":0.07,\"p_transition\":0.4}}"
  in
  let v2 =
    parse_ok
      "{\"id\":\"b\",\"kind\":\"analyze\",\"params\":{\"version\":2,\"grid\":32,\"loop\":{\"phases\":16,\"counter\":2},\"noise\":{\"sigma_w\":0.07},\"p01\":0.4,\"p10\":0.4}}"
  in
  check_bool "decoded records equal" true (v1.Cdr_svc.Protocol.params = v2.Cdr_svc.Protocol.params);
  check_bool "p_transition alias set both directions" true
    (v1.Cdr_svc.Protocol.params.Cdr_svc.Params.p01 = 0.4
    && v1.Cdr_svc.Protocol.params.Cdr_svc.Params.p10 = 0.4);
  (* equivalent spellings share one result-cache entry *)
  check_bool "cache keys equal" true
    (Cdr_svc.Protocol.cache_key v1 = Cdr_svc.Protocol.cache_key v2
    && Cdr_svc.Protocol.cache_key v1 <> None)

let test_version_fences () =
  let reject line =
    match parse line with
    | Ok _ -> Alcotest.failf "accepted: %s" line
    | Error (_, msg) -> check_bool "has message" true (String.length msg > 0)
  in
  (* v2-only syntax in a v1 request *)
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"params\":{\"noise\":{\"sigma_w\":0.07}}}";
  reject "{\"id\":\"x\",\"kind\":\"env\",\"params\":{\"env\":\"bursty\"}}";
  (* v1 flat noise fields in a v2 request *)
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"params\":{\"version\":2,\"sigma_w\":0.07}}";
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"params\":{\"version\":2,\"phases\":16}}";
  (* unsupported version *)
  reject "{\"id\":\"x\",\"kind\":\"analyze\",\"params\":{\"version\":3}}";
  (* canonical re-encode is v2 and round-trips with env present *)
  let p = { tiny_params with Cdr_svc.Params.env = Some (Env.crosstalk ()) } in
  match Cdr_svc.Params.of_json (Cdr_svc.Params.to_json p) with
  | Error msg -> Alcotest.failf "v2 env roundtrip rejected: %s" msg
  | Ok p' -> check_bool "env params roundtrip" true (p = p')

let deprecated_count () =
  List.fold_left
    (fun acc (s : Cdr_obs.Metrics.series) ->
      match s.Cdr_obs.Metrics.kind with
      | Cdr_obs.Metrics.Counter n when s.Cdr_obs.Metrics.name = "serve.deprecated_params" ->
          acc + n
      | _ -> acc)
    0 (Cdr_obs.Metrics.dump ())

let test_deprecation_counter () =
  let before = deprecated_count () in
  ignore (parse_ok "{\"id\":\"d\",\"kind\":\"analyze\",\"params\":{\"sigma_w\":0.07}}");
  ignore
    (parse_ok "{\"id\":\"d\",\"kind\":\"analyze\",\"params\":{\"version\":2,\"p_transition\":0.4}}");
  check_int "each deprecated request counted once" (before + 2) (deprecated_count ());
  (* v2-only spellings are not deprecated *)
  ignore
    (parse_ok
       "{\"id\":\"d\",\"kind\":\"analyze\",\"params\":{\"version\":2,\"noise\":{\"sigma_w\":0.07}}}");
  check_int "v2 requests not counted" (before + 2) (deprecated_count ())

let test_scenario_seeding () =
  let req =
    parse_ok
      "{\"id\":\"s\",\"kind\":\"analyze\",\"params\":{\"scenario\":\"burst-mode-retimer\",\"sigma_w\":0.08}}"
  in
  let s =
    match Cdr.Scenario.find "burst-mode-retimer" with Some s -> s | None -> Alcotest.fail "preset"
  in
  let p = req.Cdr_svc.Protocol.params in
  check_int "scenario seeds the counter" s.Cdr.Scenario.config.Cdr.Config.counter_length
    p.Cdr_svc.Params.counter;
  check_bool "scenario seeds the transition densities" true
    (p.Cdr_svc.Params.p01 = s.Cdr.Scenario.config.Cdr.Config.p01
    && p.Cdr_svc.Params.p10 = s.Cdr.Scenario.config.Cdr.Config.p10);
  check_bool "explicit field overrides the seed" true (p.Cdr_svc.Params.sigma_w = 0.08);
  (match parse "{\"id\":\"s\",\"kind\":\"analyze\",\"params\":{\"scenario\":\"frobnicate\"}}" with
  | Ok _ -> Alcotest.fail "unknown scenario accepted"
  | Error _ -> ());
  (* of_scenario rebuilds the preset's config exactly *)
  List.iter
    (fun (s : Cdr.Scenario.t) ->
      match Cdr_svc.Params.to_config (Cdr_svc.Params.of_scenario s) with
      | Error msg -> Alcotest.failf "%s: %s" s.Cdr.Scenario.name msg
      | Ok cfg ->
          check_bool (s.Cdr.Scenario.name ^ " config reproduced") true
            (cfg = s.Cdr.Scenario.config))
    Cdr.Scenario.all

(* ---------- protocol placement of the env field ---------- *)

let test_protocol_env_placement () =
  (match parse "{\"id\":\"x\",\"kind\":\"env\",\"params\":{\"version\":2}}" with
  | Ok _ -> Alcotest.fail "env request without params.env accepted"
  | Error (_, msg) -> check_bool "names the missing field" true (String.length msg > 0));
  (match
     parse
       "{\"id\":\"x\",\"kind\":\"analyze\",\"params\":{\"version\":2,\"env\":\"bursty\"}}"
   with
  | Ok _ -> Alcotest.fail "params.env accepted outside env requests"
  | Error _ -> ());
  let req =
    parse_ok "{\"id\":\"x\",\"kind\":\"env\",\"params\":{\"version\":2,\"env\":\"bursty\"}}"
  in
  check_bool "env kind decoded" true (req.Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Env);
  (* forwarding re-encode round-trips the env request exactly *)
  (match parse (Cdr_obs.Jsonl.to_string (Cdr_svc.Protocol.request_json req)) with
  | Ok req' -> check_bool "request_json roundtrips env" true (req = req')
  | Error (_, msg) -> Alcotest.failf "re-encode rejected: %s" msg);
  let sc = parse_ok "{\"id\":\"x\",\"kind\":\"scenarios\"}" in
  check_bool "scenarios kind decoded" true
    (sc.Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Scenarios)

(* ---------- engine ---------- *)

let reply_capture () =
  let captured = ref [] in
  ((fun json -> captured := json :: !captured), fun () -> List.rev !captured)

let is_ok json = Cdr_obs.Jsonl.member "ok" json = Some (Cdr_obs.Jsonl.Bool true)

let job req reply =
  { Cdr_svc.Engine.request = req; deadline = None; admitted = Cdr_obs.Clock.monotonic (); reply }

let env_req ?(id = "e") ?(backend = `Csr) ?(solver = `Multigrid) env =
  {
    Cdr_svc.Protocol.id;
    kind = Cdr_svc.Protocol.Env;
    params = { tiny_params with Cdr_svc.Params.env = Some env; backend; solver };
    deadline_ms = None;
    hold_ms = None;
  }

let result_field name r =
  match Cdr_obs.Jsonl.member "result" r with
  | Some res -> Cdr_obs.Jsonl.member name res
  | None -> None

let test_engine_env_kind () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  Cdr_svc.Engine.handle engine (job (env_req ~id:"csr" (Env.bursty ())) reply);
  Cdr_svc.Engine.handle engine (job (env_req ~id:"kron" ~backend:`Kron (Env.bursty ())) reply);
  match replies () with
  | [ csr; kron ] ->
      check_bool "csr env served" true (is_ok csr);
      check_bool "kron env served" true (is_ok kron);
      let ber r =
        match result_field "ber" r with
        | Some (Cdr_obs.Jsonl.Num b) -> b
        | _ -> Alcotest.fail "no ber in env result"
      in
      check_bool "backends agree through the service" true
        (rel_close ~tol:1e-6 (ber csr) (ber kron));
      let regimes r =
        match result_field "regimes" r with
        | Some (Cdr_obs.Jsonl.List l) -> List.length l
        | _ -> Alcotest.fail "no regimes in env result"
      in
      check_int "per-regime stats present" 2 (regimes csr);
      check_int "per-regime stats present (kron)" 2 (regimes kron);
      (* each response is Cdr_env.Report.run on the same env and config,
         bitwise *)
      let bitwise what a b =
        check_bool (what ^ " bitwise") true (Int64.bits_of_float a = Int64.bits_of_float b)
      in
      let num = function Cdr_obs.Jsonl.Num v -> v | _ -> Alcotest.fail "not a number" in
      List.iter
        (fun (backend, r) ->
          let lib =
            Cdr_env.Report.run ~ctx:(Cdr.Context.make ~backend ()) (Env.bursty ()) tiny_cfg
          in
          let what = Cdr_op.kind_string backend in
          bitwise (what ^ " ber") lib.Cdr_env.Report.ber (ber r);
          (match result_field "slip_rate" r with
          | Some v -> bitwise (what ^ " slip_rate") lib.Cdr_env.Report.slip_rate (num v)
          | None -> Alcotest.fail "no slip_rate in env result");
          match result_field "regimes" r with
          | Some (Cdr_obs.Jsonl.List l) ->
              List.iteri
                (fun e g ->
                  let get k =
                    match Cdr_obs.Jsonl.member k g with
                    | Some v -> num v
                    | None -> Alcotest.failf "regime lacks %S" k
                  in
                  bitwise (what ^ " regime prob") lib.Cdr_env.Report.regime_probs.(e) (get "prob");
                  bitwise (what ^ " regime ber") lib.Cdr_env.Report.regime_ber.(e) (get "ber"))
                l
          | _ -> Alcotest.fail "no regimes in env result")
        [ (`Csr, csr); (`Kron, kron) ]
  | rs -> Alcotest.failf "expected 2 replies, got %d" (List.length rs)

let test_engine_scenarios_kind () =
  let engine = Cdr_svc.Engine.create () in
  let reply, replies = reply_capture () in
  Cdr_svc.Engine.handle engine
    (job
       {
         Cdr_svc.Protocol.id = "sc";
         kind = Cdr_svc.Protocol.Scenarios;
         params = Cdr_svc.Params.default;
         deadline_ms = None;
         hold_ms = None;
       }
       reply);
  match replies () with
  | [ r ] -> (
      check_bool "served" true (is_ok r);
      match result_field "scenarios" r with
      | Some (Cdr_obs.Jsonl.List l) ->
          check_int "all presets listed" (List.length Cdr.Scenario.all) (List.length l)
      | _ -> Alcotest.fail "no scenarios list")
  | rs -> Alcotest.failf "expected 1 reply, got %d" (List.length rs)

(* ---------- golden v1 fixtures ---------- *)

let test_golden_v1_replay () =
  let lines =
    In_channel.with_open_text "fixtures/v1_requests.jsonl" In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  check_bool "fixture file non-empty" true (lines <> []);
  let rc = Cdr_svc.Result_cache.create () in
  let engine = Cdr_svc.Engine.create ~results:rc () in
  let serve line =
    let req =
      match parse line with
      | Ok r -> r
      | Error (_, msg) -> Alcotest.failf "golden v1 request rejected: %s (%s)" msg line
    in
    let reply, replies = reply_capture () in
    Cdr_svc.Engine.handle engine (job req reply);
    match replies () with
    | [ r ] ->
        check_bool ("served: " ^ line) true (is_ok r);
        Cdr_obs.Jsonl.to_string r
    | rs -> Alcotest.failf "expected 1 reply, got %d" (List.length rs)
  in
  let cold = List.map serve lines in
  let hits0 = Cdr_svc.Result_cache.hits rc in
  let warm = List.map serve lines in
  List.iter2 (fun c w -> check_string "replayed byte-identically" c w) cold warm;
  check_int "every replay came from the result cache"
    (hits0 + List.length lines)
    (Cdr_svc.Result_cache.hits rc)

let () =
  Alcotest.run "env"
    [
      ( "composition",
        [
          Alcotest.test_case "identity is bitwise the base chain" `Quick test_identity_bitwise;
          Alcotest.test_case "csr and kron backends agree" `Quick test_backend_parity;
          Alcotest.test_case "slow switching converges to the mixture" `Slow
            test_slow_switching_mixture_limit;
          Alcotest.test_case "env json roundtrip" `Quick test_env_json_roundtrip;
        ] );
      ( "schema",
        [
          Alcotest.test_case "v1 and v2 decode alike and share cache keys" `Quick
            test_v1_v2_equivalence;
          Alcotest.test_case "version fences" `Quick test_version_fences;
          Alcotest.test_case "deprecation counter" `Quick test_deprecation_counter;
          Alcotest.test_case "scenario seeding" `Quick test_scenario_seeding;
          Alcotest.test_case "env field placement" `Quick test_protocol_env_placement;
        ] );
      ( "engine",
        [
          Alcotest.test_case "env requests serve on both backends" `Slow test_engine_env_kind;
          Alcotest.test_case "scenarios request lists presets" `Quick test_engine_scenarios_kind;
          Alcotest.test_case "golden v1 fixtures replay byte-identically" `Slow
            test_golden_v1_replay;
        ] );
    ]
