type config = {
  queue_bound : int;
  jobs : int option;
  default_deadline_ms : float option;
  replica : int option;
  results : Result_cache.t option;
}

(* A request sink: the stdio front end feeds lines into [submit_line] and
   runs [run] on the main thread; [shutdown] (SIGTERM, stdin EOF) stops
   admission and makes [run] return once everything admitted has been
   answered. The local single-process engine and the multi-replica router
   both implement this. *)
type service = {
  submit_line : write:(Cdr_obs.Jsonl.t -> unit) -> string -> unit;
  run : unit -> unit;
  shutdown : unit -> unit;
}

(* ---------- the local (single-process) service ---------- *)

let replica_labels cfg =
  match cfg.replica with Some r -> [ ("replica", string_of_int r) ] | None -> []

(* deadlines are absolute monotonic times: producers stamp them here and the
   engine compares against the same clock, so an NTP step while a request is
   queued can neither spuriously expire it nor extend it *)
let absolute_deadline cfg req =
  let rel =
    match req.Protocol.deadline_ms with Some _ as d -> d | None -> cfg.default_deadline_ms
  in
  Option.map (fun ms -> Cdr_obs.Clock.monotonic () +. (ms /. 1000.)) rel

(* parse + admit one line; [write] delivers both the rejection (now) and the
   response (later, from the solve loop) for this request's origin *)
let submit cfg queue ~write line =
  match Protocol.parse_request line with
  | Error (id, message) -> write (Protocol.error_response ?id ~code:`Bad_request ~message ())
  | Ok req -> (
      let job =
        {
          Engine.request = req;
          deadline = absolute_deadline cfg req;
          admitted = Cdr_obs.Clock.monotonic ();
          reply = write;
        }
      in
      let refuse message =
        Cdr_obs.Metrics.incr "serve.requests"
          ~labels:
            (("kind", Protocol.kind_name req.Protocol.kind)
            :: ("status", "overloaded") :: replica_labels cfg);
        write (Protocol.error_response ~id:req.Protocol.id ~code:`Overloaded ~message ())
      in
      match Admission.push queue job with
      | `Ok -> ()
      | `Overloaded -> refuse (Printf.sprintf "admission queue full (bound %d)" cfg.queue_bound)
      | `Closed -> refuse "server is shutting down")

(* the single consumer: block for one job, then let whatever else queued up
   meanwhile ride along as a batch so the engine can group it by structure *)
let serve_loop engine queue =
  let rec loop () =
    match Admission.pop queue with
    | None -> ()
    | Some job ->
        Engine.process engine (job :: Admission.drain queue);
        loop ()
  in
  loop ()

let make_engine cfg =
  let pool =
    match cfg.jobs with
    | Some j when j > 1 -> Some (Cdr_par.Pool.create ~jobs:j ())
    | _ -> None
  in
  Engine.create ?pool ?results:cfg.results ?replica:cfg.replica ()

let local_service cfg =
  let engine = make_engine cfg in
  let queue = Admission.create ~labels:(replica_labels cfg) ~bound:cfg.queue_bound () in
  {
    submit_line = (fun ~write line -> submit cfg queue ~write line);
    run = (fun () -> serve_loop engine queue);
    shutdown = (fun () -> Admission.close queue);
  }

(* Condition.wait / input_line block in C, where signal handlers cannot
   run; this thread's Thread.delay wakeups are the guaranteed safepoints
   that let a pending SIGTERM actually execute its handler, after which it
   triggers the service shutdown. [finished] terminates the ticker on a
   normal (EOF-driven) shutdown. *)
let shutdown_ticker ~stop ~finished svc =
  Thread.create
    (fun () ->
      while not (Atomic.get stop || Atomic.get finished) do
        Thread.delay 0.05
      done;
      if Atomic.get stop then svc.shutdown ())
    ()

(* ---------- stdio transport ---------- *)

let run_stdio_service svc =
  let stop = Atomic.make false and finished = Atomic.make false in
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true)));
  let out_mu = Mutex.create () in
  let write json =
    Mutex.lock out_mu;
    print_string (Cdr_obs.Jsonl.to_string json);
    print_newline ();
    flush stdout;
    Mutex.unlock out_mu
  in
  let _reader =
    Thread.create
      (fun () ->
        (try
           while not (Atomic.get stop) do
             let line = input_line stdin in
             if String.trim line <> "" then svc.submit_line ~write line
           done
         with End_of_file -> ());
        svc.shutdown ())
      ()
  in
  let _ticker = shutdown_ticker ~stop ~finished svc in
  svc.run ();
  Atomic.set finished true;
  (* drain complete: every admitted request has been answered; push the
     tail of the telemetry stream out before the process is torn down *)
  Cdr_obs.Sink.flush_all ()

let run_stdio cfg = run_stdio_service (local_service cfg)
