(* JSON-lines analysis server: one request per stdin line, one response per
   stdout line. See Cdr_svc.Protocol for the request/response format.

   --replicas N turns this process into an acceptor/router that forks N
   worker replicas of itself (each re-executed with --replica-worker) and
   routes requests by rendezvous hash of their structure key; --result-cache
   layers a params-keyed response memoization cache in front of solving. *)

open Cmdliner

let queue_bound =
  let doc =
    "Maximum number of admitted-but-not-yet-executing requests. Requests beyond the bound are \
     refused immediately with an $(b,overloaded) error instead of queuing unboundedly. With \
     $(b,--replicas) the bound applies per replica (the router keeps at most $(docv) requests \
     in flight on each worker)."
  in
  Arg.(value & opt int 64 & info [ "queue-bound" ] ~docv:"N" ~doc)

let jobs =
  let doc =
    "Worker domains for the solver kernels (parallelism lives inside a request; requests \
     execute one at a time). Default: serial. With $(b,--replicas) each worker replica gets \
     its own pool of $(docv) domains."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let default_deadline_ms =
  let doc =
    "Deadline applied to requests that carry no $(b,deadline_ms) field, in milliseconds from \
     admission. Expired requests are answered with a $(b,timeout) error; the server keeps \
     serving."
  in
  Arg.(value & opt (some float) None & info [ "default-deadline-ms" ] ~docv:"MS" ~doc)

let replicas =
  let doc =
    "Fork $(docv) worker replica processes and route requests to them by rendezvous hash of \
     their parameter structure key, so each replica's solver caches stay hot for the keys it \
     owns. A crashed replica is respawned and its in-flight requests are answered with \
     $(b,internal) errors; requests are re-routed to survivors meanwhile. Default: 1 (serve \
     in-process, no router)."
  in
  Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"N" ~doc)

let result_cache =
  let doc =
    "Memoize full responses keyed on the canonical parameter encoding: a repeated identical \
     request (same kind, payload and params, no $(b,hold_ms)) is answered from the cache, \
     byte-identical to the cold solve. With $(b,--replicas) the cache lives in the router and \
     is shared by all replicas. $(docv) bounds the entry count (LRU)."
  in
  Arg.(value & opt (some int) None & info [ "result-cache" ] ~docv:"CAP" ~doc)

let persist =
  let doc =
    "Persist the result cache to $(docv): load it on startup (a missing file is an empty \
     cache) and write it back on clean shutdown. Implies $(b,--result-cache) with its default \
     capacity unless one is given."
  in
  Arg.(value & opt (some string) None & info [ "persist" ] ~docv:"PATH" ~doc)

let replica_worker =
  let doc =
    "Internal: run as worker replica number $(docv) under a router (stdio transport, metrics \
     labeled $(b,replica)=$(docv)). Spawned by $(b,--replicas); not meant to be used directly."
  in
  Arg.(value & opt (some int) None & info [ "replica-worker" ] ~docv:"I" ~doc)

let summary =
  let doc =
    "On exit, print the metrics registry (request counts, latency histograms, queue depth, \
     solver-cache hit/miss/eviction counters) to stderr."
  in
  Arg.(value & flag & info [ "summary" ] ~doc)

let run queue_bound jobs default_deadline_ms replicas result_cache persist replica_worker summary =
  if queue_bound < 1 then begin
    Format.eprintf "cdr_serve: --queue-bound must be >= 1@.";
    exit 2
  end;
  if replicas < 1 then begin
    Format.eprintf "cdr_serve: --replicas must be >= 1@.";
    exit 2
  end;
  (match jobs with
  | Some j when j < 1 ->
      Format.eprintf "cdr_serve: --jobs must be >= 1@.";
      exit 2
  | _ -> ());
  (match result_cache with
  | Some c when c < 1 ->
      Format.eprintf "cdr_serve: --result-cache must be >= 1@.";
      exit 2
  | _ -> ());
  Cdr_obs.Sink.init_from_env ();
  let results =
    match (result_cache, persist, replica_worker) with
    | _, _, Some _ -> None (* workers never memoize; the router does *)
    | None, None, None -> None
    | capacity, Some path, None -> Some (Cdr_svc.Result_cache.load ?capacity path)
    | Some capacity, None, None -> Some (Cdr_svc.Result_cache.create ~capacity ())
  in
  let cfg =
    { Cdr_svc.Server.queue_bound; jobs; default_deadline_ms; replica = None; results }
  in
  (match replica_worker with
  | Some r -> Cdr_svc.Replica.run ~replica:r cfg
  | None ->
      Cdr_svc.Server.run_stdio_service
        (if replicas > 1 then Cdr_svc.Router.create ~replicas cfg
         else Cdr_svc.Server.local_service cfg));
  (match (results, persist) with
  | Some rc, Some path -> Cdr_svc.Result_cache.save rc path
  | _ -> ());
  if summary then Format.eprintf "%a@." Cdr_obs.Metrics.pp ();
  Cdr_obs.Sink.close_all ()

let cmd =
  let doc = "Long-running JSON-lines analysis service for the CDR stochastic analysis" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads one JSON request per line and writes one JSON response per line. Request kinds: \
         $(b,analyze) (stationary density, BER, cycle-slip time), $(b,sweep) (BER vs counter \
         length), $(b,sigma) (BER vs eye-opening jitter), $(b,slip) (cycle-slip measures). \
         Same-structure requests arriving together are batched so they share one cached \
         multigrid setup and in-place model rebuilds.";
      `P
        "With $(b,--replicas N) the process becomes an acceptor/router over N forked worker \
         replicas: requests sharing a parameter structure always land on the same replica \
         (rendezvous hashing), a $(b,stats) request aggregates every replica's snapshot, and \
         $(b,--result-cache) shares one response memoization cache across all of them.";
      `P
        "SIGTERM (or end of input) drains every admitted request, answers each, and exits 0.";
      `S Manpage.s_examples;
      `Pre
        "  \\$ echo '{\"id\":\"r1\",\"kind\":\"analyze\",\"params\":{\"grid\":64}}' | cdr_serve";
      `Pre "  \\$ cdr_serve --replicas 4 --result-cache 512 < requests.jsonl";
    ]
  in
  Cmd.v
    (Cmd.info "cdr_serve" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ queue_bound $ jobs $ default_deadline_ms $ replicas $ result_cache $ persist
      $ replica_worker $ summary)

let () = exit (Cmd.eval cmd)
