(* Tests for the multi-replica serving layer: rendezvous routing stability
   and minimal re-routing when a replica dies, the result-memoization
   cache's byte-identical replay through the engine, its LRU accounting,
   disk persistence round-trips, and the request re-encoding the router
   uses to forward a parsed request under its internal correlation id. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tiny_params =
  { Cdr_svc.Params.default with Cdr_svc.Params.grid = 32; phases = 16; counter = 2 }

(* ---------- rendezvous routing ---------- *)

let keys n = List.init n (fun i -> Printf.sprintf "g%d|p16|c%d|mg|lex|csr" (32 + i) (2 + i))

let test_route_deterministic () =
  let ks = keys 64 in
  List.iter
    (fun k ->
      let a = Cdr_svc.Router.route ~replicas:4 k in
      let b = Cdr_svc.Router.route ~replicas:4 k in
      check_bool "same key routes identically" true (a = b && a <> None);
      match a with
      | Some i -> check_bool "replica in range" true (i >= 0 && i < 4)
      | None -> Alcotest.fail "no replica with all live")
    ks;
  (* every replica owns some keys: the hash actually spreads *)
  let owners =
    List.sort_uniq compare (List.filter_map (Cdr_svc.Router.route ~replicas:4) ks)
  in
  check_int "all 4 replicas own keys" 4 (List.length owners);
  (* structure_key is the routing input: same structure, same replica *)
  let p = tiny_params in
  let q = { p with Cdr_svc.Params.sigma_w = p.Cdr_svc.Params.sigma_w *. 2. } in
  check_bool "noise-only param deltas keep the route" true
    (Cdr_svc.Router.route ~replicas:4 (Cdr_svc.Params.structure_key p)
    = Cdr_svc.Router.route ~replicas:4 (Cdr_svc.Params.structure_key q))

let test_route_rerouting_is_minimal () =
  let ks = keys 128 in
  let before = List.map (fun k -> (k, Cdr_svc.Router.route ~replicas:4 k)) ks in
  let victim =
    match snd (List.hd before) with Some i -> i | None -> Alcotest.fail "no route"
  in
  let dead i = i = victim in
  List.iter
    (fun (k, prev) ->
      let now = Cdr_svc.Router.route ~dead ~replicas:4 k in
      match (prev, now) with
      | Some p, Some n when p = victim ->
          check_bool "orphaned key moved to a live replica" true (n <> victim)
      | Some p, Some n ->
          (* the rendezvous property: keys not owned by the victim do not
             move — their highest scorer is still alive *)
          check_int "unaffected key kept its home" p n
      | _ -> Alcotest.fail "route vanished")
    before;
  (* all replicas dead: no route *)
  check_bool "no live replica -> None" true
    (Cdr_svc.Router.route ~dead:(fun _ -> true) ~replicas:4 (List.hd ks) = None)

(* ---------- result memoization through the engine ---------- *)

let reply_capture () =
  let captured = ref [] in
  ((fun json -> captured := json :: !captured), fun () -> List.rev !captured)

let analyze_req ?(id = "t") ?(params = tiny_params) () =
  {
    Cdr_svc.Protocol.id;
    kind = Cdr_svc.Protocol.Analyze;
    params;
    deadline_ms = None;
    hold_ms = None;
  }

let submit engine reply req =
  Cdr_svc.Engine.handle engine
    {
      Cdr_svc.Engine.request = req;
      deadline = None;
      admitted = Cdr_obs.Clock.monotonic ();
      reply;
    }

let test_memo_hit_byte_identical () =
  let rc = Cdr_svc.Result_cache.create ~capacity:8 () in
  let engine = Cdr_svc.Engine.create ~results:rc () in
  let reply, replies = reply_capture () in
  submit engine reply (analyze_req ~id:"cold" ());
  submit engine reply (analyze_req ~id:"hot" ());
  submit engine reply (analyze_req ~id:"cold" ());
  match replies () with
  | [ cold; hot; again ] ->
      check_int "one miss" 1 (Cdr_svc.Result_cache.misses rc);
      check_int "two hits" 2 (Cdr_svc.Result_cache.hits rc);
      (* the replay is byte-identical to the cold solve: stored envelope
         (elapsed_ms, cache deltas) and all — only the id differs *)
      check_string "hit replays the stored bytes under its own id"
        (Cdr_obs.Jsonl.to_string
           (Cdr_svc.Protocol.response_with_id cold "hot"))
        (Cdr_obs.Jsonl.to_string hot);
      check_string "same id replays the exact cold bytes"
        (Cdr_obs.Jsonl.to_string cold)
        (Cdr_obs.Jsonl.to_string again)
  | rs -> Alcotest.failf "expected 3 replies, got %d" (List.length rs)

let test_memo_exclusions () =
  (* stats and hold_ms requests must never be replayed *)
  check_bool "stats has no cache key" true
    (Cdr_svc.Protocol.cache_key
       { (analyze_req ()) with Cdr_svc.Protocol.kind = Cdr_svc.Protocol.Stats }
    = None);
  check_bool "hold_ms has no cache key" true
    (Cdr_svc.Protocol.cache_key { (analyze_req ()) with Cdr_svc.Protocol.hold_ms = Some 5.0 }
    = None);
  (* different params, different key; same params, same key *)
  let k1 = Cdr_svc.Protocol.cache_key (analyze_req ()) in
  let k2 = Cdr_svc.Protocol.cache_key (analyze_req ~id:"other" ()) in
  check_bool "key ignores the request id" true (k1 = k2 && k1 <> None);
  let k3 =
    Cdr_svc.Protocol.cache_key
      (analyze_req ~params:{ tiny_params with Cdr_svc.Params.sigma_w = 0.09 } ())
  in
  check_bool "key depends on params" true (k1 <> k3);
  (* deadline shapes timeliness, not content: same key *)
  let k4 =
    Cdr_svc.Protocol.cache_key
      { (analyze_req ()) with Cdr_svc.Protocol.deadline_ms = Some 500.0 }
  in
  check_bool "key ignores the deadline" true (k1 = k4)

(* ---------- LRU accounting ---------- *)

let resp tag = Cdr_obs.Jsonl.Obj [ ("ok", Bool true); ("tag", Str tag) ]

let test_lru_eviction () =
  let rc = Cdr_svc.Result_cache.create ~capacity:2 () in
  Cdr_svc.Result_cache.store rc "a" (resp "a");
  Cdr_svc.Result_cache.store rc "b" (resp "b");
  check_int "no eviction at capacity" 0 (Cdr_svc.Result_cache.evictions rc);
  (* touch "a": it becomes most recent, so "b" is the victim *)
  check_bool "a found" true (Cdr_svc.Result_cache.find rc "a" <> None);
  Cdr_svc.Result_cache.store rc "c" (resp "c");
  check_int "third entry evicts" 1 (Cdr_svc.Result_cache.evictions rc);
  check_int "size stays at capacity" 2 (Cdr_svc.Result_cache.length rc);
  check_bool "recency refresh saved a" true (Cdr_svc.Result_cache.find rc "a" <> None);
  check_bool "lru b evicted" true (Cdr_svc.Result_cache.find rc "b" = None);
  check_bool "c present" true (Cdr_svc.Result_cache.find rc "c" <> None)

(* ---------- persistence ---------- *)

let test_persistence_roundtrip () =
  let path = Filename.temp_file "cdr_result_cache" ".jsonl" in
  let rc = Cdr_svc.Result_cache.create ~capacity:8 () in
  Cdr_svc.Result_cache.store rc "a" (resp "a");
  Cdr_svc.Result_cache.store rc "b" (resp "b");
  Cdr_svc.Result_cache.store rc "c" (resp "c");
  Cdr_svc.Result_cache.save rc path;
  let rc' = Cdr_svc.Result_cache.load ~capacity:8 path in
  check_int "all entries reloaded" 3 (Cdr_svc.Result_cache.length rc');
  List.iter
    (fun key ->
      match Cdr_svc.Result_cache.find rc' key with
      | Some v ->
          check_string
            ("entry " ^ key ^ " byte-identical")
            (Cdr_obs.Jsonl.to_string (resp key))
            (Cdr_obs.Jsonl.to_string v)
      | None -> Alcotest.failf "entry %s lost in round-trip" key)
    [ "a"; "b"; "c" ];
  (* recency survives: loading into a capacity-2 cache keeps the two most
     recently used entries and evicts the oldest *)
  let rc2 = Cdr_svc.Result_cache.load ~capacity:2 path in
  check_int "tight reload is full" 2 (Cdr_svc.Result_cache.length rc2);
  check_bool "oldest entry evicted on tight reload" true
    (Cdr_svc.Result_cache.find rc2 "a" = None);
  check_bool "newest entry kept" true (Cdr_svc.Result_cache.find rc2 "c" <> None);
  Sys.remove path;
  (* a missing snapshot is an empty cache, not an error *)
  let rc3 = Cdr_svc.Result_cache.load path in
  check_int "missing file loads empty" 0 (Cdr_svc.Result_cache.length rc3)

(* a snapshot written before the format tag, or under another tag, may hold
   answers the current code no longer gives: it must reload as empty *)
let test_persistence_rejects_stale_format () =
  let path = Filename.temp_file "cdr_result_cache" ".jsonl" in
  let entry key =
    Cdr_obs.Jsonl.to_string
      (Cdr_obs.Jsonl.Obj [ ("key", Cdr_obs.Jsonl.Str key); ("response", resp key) ])
  in
  let write lines =
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  let tag v = Printf.sprintf "{\"result_cache_format\":%d}" v in
  write [ entry "a"; entry "b" ];
  check_int "untagged snapshot loads empty" 0
    (Cdr_svc.Result_cache.length (Cdr_svc.Result_cache.load path));
  write [ tag (Cdr_svc.Result_cache.format_version - 1); entry "a"; entry "b" ];
  check_int "old-tagged snapshot loads empty" 0
    (Cdr_svc.Result_cache.length (Cdr_svc.Result_cache.load path));
  write [ tag Cdr_svc.Result_cache.format_version; entry "a"; entry "b" ];
  check_int "current tag loads" 2 (Cdr_svc.Result_cache.length (Cdr_svc.Result_cache.load path));
  (* and save writes the current tag first *)
  let rc = Cdr_svc.Result_cache.create () in
  Cdr_svc.Result_cache.store rc "c" (resp "c");
  Cdr_svc.Result_cache.save rc path;
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  check_string "save writes the tag first" (tag Cdr_svc.Result_cache.format_version) first;
  Sys.remove path

(* a crash while the snapshot is being written (or a copy cut short) leaves
   a torn tail: the torn line costs its own entry, never the ones before it,
   and a file torn inside the header loads as no snapshot at all *)
let test_persistence_torn_snapshot () =
  let path = Filename.temp_file "cdr_result_cache" ".jsonl" in
  let rc = Cdr_svc.Result_cache.create ~capacity:8 () in
  List.iter (fun k -> Cdr_svc.Result_cache.store rc k (resp k)) [ "a"; "b"; "c" ];
  Cdr_svc.Result_cache.save rc path;
  let ic = open_in_bin path in
  let full = In_channel.input_all ic in
  close_in ic;
  let cut_to n =
    let oc = open_out_bin path in
    output_string oc (String.sub full 0 n);
    close_out oc
  in
  (* the last line holds the most recent entry, "c"; cut it in half *)
  let body = String.sub full 0 (String.length full - 1) in
  let last_start = String.rindex body '\n' + 1 in
  cut_to (last_start + ((String.length body - last_start) / 2));
  let torn = Cdr_svc.Result_cache.load ~capacity:8 path in
  check_int "torn tail loses one entry" 2 (Cdr_svc.Result_cache.length torn);
  check_bool "torn entry gone" true (Cdr_svc.Result_cache.find torn "c" = None);
  List.iter
    (fun key ->
      match Cdr_svc.Result_cache.find torn key with
      | Some v ->
          check_string
            ("entry " ^ key ^ " byte-identical")
            (Cdr_obs.Jsonl.to_string (resp key))
            (Cdr_obs.Jsonl.to_string v)
      | None -> Alcotest.failf "complete entry %s lost to a torn tail" key)
    [ "a"; "b" ];
  cut_to (String.index full '\n' / 2);
  check_int "torn header loads empty" 0
    (Cdr_svc.Result_cache.length (Cdr_svc.Result_cache.load path));
  Sys.remove path

(* ---------- forwarding re-encoding ---------- *)

let test_request_json_roundtrip () =
  let lines =
    [
      "{\"id\":\"q1\",\"kind\":\"analyze\",\"params\":{\"grid\":32,\"phases\":16}}";
      "{\"id\":\"q2\",\"kind\":\"sweep\",\"lengths\":[2,4,8]}";
      "{\"id\":\"q3\",\"kind\":\"sigma\",\"values\":[0.05,0.0625]}";
      "{\"id\":\"q4\",\"kind\":\"slip\",\"deadline_ms\":250,\"hold_ms\":3}";
      "{\"id\":\"q5\",\"kind\":\"stats\"}";
    ]
  in
  List.iter
    (fun line ->
      match Cdr_svc.Protocol.parse_request line with
      | Error (_, msg) -> Alcotest.failf "seed rejected (%s): %s" line msg
      | Ok req -> (
          (* what the router does: rewrite the id, re-encode, forward *)
          let fwd = { req with Cdr_svc.Protocol.id = "r00000042" } in
          let encoded = Cdr_obs.Jsonl.to_string (Cdr_svc.Protocol.request_json fwd) in
          match Cdr_svc.Protocol.parse_request encoded with
          | Error (_, msg) -> Alcotest.failf "re-encoding rejected (%s): %s" encoded msg
          | Ok req' ->
              check_bool ("round-trips: " ^ line) true (req' = fwd);
              check_bool "cache key survives the hop" true
                (Cdr_svc.Protocol.cache_key req' = Cdr_svc.Protocol.cache_key req)))
    lines

let () =
  Alcotest.run "router"
    [
      ( "rendezvous",
        [
          Alcotest.test_case "deterministic and spread" `Quick test_route_deterministic;
          Alcotest.test_case "re-routing is minimal" `Quick test_route_rerouting_is_minimal;
        ] );
      ( "memo",
        [
          Alcotest.test_case "hit is byte-identical" `Quick test_memo_hit_byte_identical;
          Alcotest.test_case "stats and hold excluded" `Quick test_memo_exclusions;
        ] );
      ( "result_cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "persistence round-trip" `Quick test_persistence_roundtrip;
          Alcotest.test_case "stale snapshot format loads empty" `Quick
            test_persistence_rejects_stale_format;
          Alcotest.test_case "torn snapshot keeps complete entries" `Quick
            test_persistence_torn_snapshot;
        ] );
      ( "protocol",
        [ Alcotest.test_case "forwarding re-encodes exactly" `Quick test_request_json_roundtrip ]
      );
    ]
