(* A work queue drained by [jobs - 1] persistent domains plus the caller.

   Batches are the unit of coordination: [run_slots] enqueues one task per
   slot, the caller helps drain the queue, then waits on a condition for the
   stragglers other domains picked up. Which domain runs which slot is
   scheduling-dependent, but every combinator built on top writes results
   into slot-indexed storage and combines slots in a fixed order, so the
   values computed are independent of the schedule. *)

(* A phase region ([run_phases]) enlists worker domains once and then
   dispatches every batch the region body issues over lock-free tickets: the
   owner publishes the job, bumps an epoch, and workers claim slots by CAS on
   a combined [epoch | next-slot] word. The slot grid and the slot-indexed
   result layout are exactly those of the queue path, so the determinism
   contract is untouched — only the per-batch mutex/condvar round trips go
   away. *)
type region = {
  r_owner : Domain.id; (* only this domain may dispatch into the region *)
  r_members : int; (* helper domains enlisted (the owner is extra) *)
  r_epoch : int Atomic.t; (* batch sequence number, bumped per dispatch *)
  r_stop : bool Atomic.t;
  mutable r_job : int -> unit; (* published before the epoch bump *)
  mutable r_slots : int; (* ditto *)
  r_next : int Atomic.t; (* ticket word: (epoch lsl slot_bits) lor next *)
  r_done : int Atomic.t; (* slots completed in the current batch *)
  r_failure : exn option Atomic.t;
  r_sleepers : int Atomic.t; (* helpers blocked on [r_wake] *)
  r_waiting : bool Atomic.t; (* owner blocked waiting for the batch end *)
  r_exited : int Atomic.t; (* helpers that left the region loop *)
  r_mutex : Mutex.t;
  r_wake : Condition.t;
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t; (* new tasks or shutdown *)
  batch_done : Condition.t; (* a batch's last task finished *)
  pending : (unit -> unit) Queue.t; (* guarded by [mutex] *)
  mutable workers : unit Domain.t list;
  mutable spawned : bool; (* guarded by [mutex] *)
  mutable stopped : bool; (* guarded by [mutex] *)
  busy : bool Atomic.t; (* a batch is in flight; nested batches run serially *)
  region : region option Atomic.t; (* active [run_phases] region, if any *)
}

let max_jobs = 64 (* OCaml caps live domains at 128; stay well under *)

(* ---- profiler --------------------------------------------------------
   Off by default and gated on one [Atomic.get] per batch, so instrumented
   call sites cost nothing in production runs. When on, every pooled batch
   attributes wall time to the caller's current phase (a domain-local label
   stack installed by [with_phase]) in four ways:

     busy     sum of per-slot task execution time, measured on the worker
     idle     jobs * batch wall minus busy: capacity the batch left unused
     barrier  time the caller spent waiting for straggler slots after it
              drained the queue itself
     merge    wall time of [merge_tree] reductions

   Per-slot busy times go into a write-disjoint array (slot [s] is written
   only by the domain that ran slot [s]); the existing [remaining] atomic
   orders those writes before the caller's read, so no extra synchronisation
   is needed. *)

let profiling = Atomic.make false

let set_profiling b = Atomic.set profiling b

let profiling_on () = Atomic.get profiling

let phase_key : (string * string) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [ ("phase", "unattributed") ])

let current_phase () = !(Domain.DLS.get phase_key)

let with_phase ?(labels = []) name f =
  if not (Atomic.get profiling) then f ()
  else begin
    let cell = Domain.DLS.get phase_key in
    let saved = !cell in
    let phase_labels = ("phase", name) :: labels in
    cell := phase_labels;
    let t0 = Cdr_obs.Clock.monotonic () in
    Fun.protect
      ~finally:(fun () ->
        cell := saved;
        Cdr_obs.Metrics.observe ~labels:phase_labels ~base:2.0 "pool.phase_seconds"
          (Cdr_obs.Clock.monotonic () -. t0))
      f
  end

let default_jobs () =
  match Sys.getenv_opt "CDR_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n max_jobs
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Cdr_par.Pool.create: jobs must be >= 1";
  {
    jobs = min jobs max_jobs;
    mutex = Mutex.create ();
    work = Condition.create ();
    batch_done = Condition.create ();
    pending = Queue.create ();
    workers = [];
    spawned = false;
    stopped = false;
    busy = Atomic.make false;
    region = Atomic.make None;
  }

let jobs t = t.jobs

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.pending && not t.stopped do
    Condition.wait t.work t.mutex
  done;
  match Queue.take_opt t.pending with
  | None ->
      (* stopped with an empty queue *)
      Mutex.unlock t.mutex
  | Some task ->
      Mutex.unlock t.mutex;
      task ();
      worker_loop t

let ensure_workers t =
  Mutex.lock t.mutex;
  let spawn = (not t.spawned) && not t.stopped in
  if spawn then t.spawned <- true;
  Mutex.unlock t.mutex;
  if spawn then
    t.workers <- List.init (t.jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t))

let shutdown t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run_serial slots f =
  for s = 0 to slots - 1 do
    f s
  done

(* ---- phase regions ---------------------------------------------------
   Dispatch over the queue costs two mutex sections and two condvar
   round trips per batch; a V-cycle issues several batches per level
   (scatter, aggregation, prolongation) and one per residual, so at small
   grids that fixed cost dominates the kernels it fans out. Inside a region the same batches
   ride an epoch/ticket protocol that costs one atomic store and a handful
   of CAS claims, with helpers spinning briefly before blocking. *)

let spin_budget = 4096 (* [Domain.cpu_relax] iterations before blocking *)

let slot_bits = 20 (* ticket word layout; batches this large skip the region *)

let slot_mask = (1 lsl slot_bits) - 1

(* Claim and run slots of epoch [e]. The ticket word carries the epoch so a
   helper that slept through a batch boundary can never claim (or even
   observe a consistent slot index for) a batch it did not enter: the CAS
   fails the moment the embedded epoch moves on. *)
let region_claim r e =
  let job = r.r_job and slots = r.r_slots in
  let base = e lsl slot_bits in
  let continue_ = ref true in
  while !continue_ do
    let cur = Atomic.get r.r_next in
    let s = cur land slot_mask in
    if cur lsr slot_bits <> e || s >= slots then continue_ := false
    else if Atomic.compare_and_set r.r_next cur (base lor (s + 1)) then begin
      (try job s with exn -> ignore (Atomic.compare_and_set r.r_failure None (Some exn)));
      if Atomic.fetch_and_add r.r_done 1 = slots - 1 && Atomic.get r.r_waiting then begin
        Mutex.lock r.r_mutex;
        Condition.broadcast r.r_wake;
        Mutex.unlock r.r_mutex
      end
    end
  done

(* Helper loop: spin for a new epoch, block when the region goes quiet,
   leave on [r_stop]. Runs on a pool worker domain, entered once per region
   through the ordinary task queue. *)
let region_worker r () =
  let seen = ref (Atomic.get r.r_epoch) in
  let spins = ref 0 in
  let running = ref true in
  while !running do
    if Atomic.get r.r_stop then running := false
    else begin
      let e = Atomic.get r.r_epoch in
      if e <> !seen then begin
        seen := e;
        spins := 0;
        region_claim r e
      end
      else if !spins < spin_budget then begin
        incr spins;
        Domain.cpu_relax ()
      end
      else begin
        Mutex.lock r.r_mutex;
        Atomic.incr r.r_sleepers;
        while (not (Atomic.get r.r_stop)) && Atomic.get r.r_epoch = !seen do
          Condition.wait r.r_wake r.r_mutex
        done;
        Atomic.decr r.r_sleepers;
        Mutex.unlock r.r_mutex;
        spins := 0
      end
    end
  done;
  ignore (Atomic.fetch_and_add r.r_exited 1);
  Mutex.lock r.r_mutex;
  Condition.broadcast r.r_wake;
  Mutex.unlock r.r_mutex

(* One batch inside a region, owner side: publish the job, bump the epoch,
   help claim, then spin-then-block for stragglers. Mirrors [run_slots]'s
   profiler accounting with the region's team size. *)
let region_dispatch r ~slots f =
  let prof = Atomic.get profiling in
  let labels = if prof then current_phase () else [] in
  let busy_s = if prof then Array.make slots 0.0 else [||] in
  let wall0 = if prof then Cdr_obs.Clock.monotonic () else 0.0 in
  let job =
    if not prof then f
    else fun s ->
      let b0 = Cdr_obs.Clock.monotonic () in
      Fun.protect
        ~finally:(fun () -> busy_s.(s) <- Cdr_obs.Clock.monotonic () -. b0)
        (fun () -> f s)
  in
  Atomic.set r.r_failure None;
  r.r_job <- job;
  r.r_slots <- slots;
  Atomic.set r.r_done 0;
  let e = Atomic.get r.r_epoch + 1 in
  (* ticket base first: a helper that observes the new epoch must find a
     ticket word already carrying it *)
  Atomic.set r.r_next (e lsl slot_bits);
  Atomic.set r.r_epoch e;
  if Atomic.get r.r_sleepers > 0 then begin
    Mutex.lock r.r_mutex;
    Condition.broadcast r.r_wake;
    Mutex.unlock r.r_mutex
  end;
  region_claim r e;
  let bar0 = if prof then Cdr_obs.Clock.monotonic () else 0.0 in
  if Atomic.get r.r_done < slots then begin
    let spins = ref 0 in
    while Atomic.get r.r_done < slots && !spins < spin_budget do
      incr spins;
      Domain.cpu_relax ()
    done;
    if Atomic.get r.r_done < slots then begin
      Mutex.lock r.r_mutex;
      Atomic.set r.r_waiting true;
      while Atomic.get r.r_done < slots do
        Condition.wait r.r_wake r.r_mutex
      done;
      Atomic.set r.r_waiting false;
      Mutex.unlock r.r_mutex
    end
  end;
  if prof then begin
    let now = Cdr_obs.Clock.monotonic () in
    let wall = now -. wall0 in
    let busy = Array.fold_left ( +. ) 0.0 busy_s in
    let team = float_of_int (r.r_members + 1) in
    let idle = Float.max 0.0 ((team *. wall) -. busy) in
    Cdr_obs.Metrics.incr ~labels "pool.dispatches";
    Cdr_obs.Metrics.add ~labels "pool.tasks" slots;
    Cdr_obs.Metrics.observe ~labels ~base:2.0 "pool.busy_seconds" busy;
    Cdr_obs.Metrics.observe ~labels ~base:2.0 "pool.idle_seconds" idle;
    Cdr_obs.Metrics.observe ~labels ~base:2.0 "pool.barrier_seconds" (now -. bar0)
  end;
  match Atomic.get r.r_failure with Some exn -> raise exn | None -> ()

(* Helpers beyond the machine's core count cannot overlap with the owner;
   they only add context switches (acute on a single-core host, where any
   cross-domain protocol is pure overhead). [CDR_REGION_MEMBERS] overrides
   the cap so tests can force the cross-domain protocol regardless. *)
let region_members t =
  let cap = min (t.jobs - 1) (max 0 (Domain.recommended_domain_count () - 1)) in
  match Sys.getenv_opt "CDR_REGION_MEMBERS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> min n (t.jobs - 1)
      | Some _ | None -> cap)
  | None -> cap

let run_slots t ~slots f =
  if slots > 0 then
    match Atomic.get t.region with
    | Some r when slots > 1 && slots < slot_mask && Domain.self () = r.r_owner ->
        region_dispatch r ~slots f
    | Some _ | None ->
    if t.jobs = 1 || slots = 1 || t.stopped || not (Atomic.compare_and_set t.busy false true)
    then
      if not (Atomic.get profiling) then run_serial slots f
      else begin
        let labels = current_phase () in
        let t0 = Cdr_obs.Clock.monotonic () in
        Fun.protect
          ~finally:(fun () ->
            let dt = Cdr_obs.Clock.monotonic () -. t0 in
            Cdr_obs.Metrics.incr ~labels "pool.serial_batches";
            Cdr_obs.Metrics.add ~labels "pool.tasks" slots;
            Cdr_obs.Metrics.observe ~labels ~base:2.0 "pool.busy_seconds" dt)
          (fun () -> run_serial slots f)
      end
    else begin
      ensure_workers t;
      let prof = Atomic.get profiling in
      let labels = if prof then current_phase () else [] in
      let busy_s = if prof then Array.make slots 0.0 else [||] in
      let wall0 = if prof then Cdr_obs.Clock.monotonic () else 0.0 in
      let remaining = Atomic.make slots in
      let failure = Atomic.make None in
      let task s () =
        let b0 = if prof then Cdr_obs.Clock.monotonic () else 0.0 in
        (try f s
         with e -> ignore (Atomic.compare_and_set failure None (Some e)));
        (* slot [s] is this domain's alone; the [remaining] decrement below
           publishes the write to the caller waiting on zero *)
        if prof then busy_s.(s) <- Cdr_obs.Clock.monotonic () -. b0;
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock t.mutex;
          Condition.broadcast t.batch_done;
          Mutex.unlock t.mutex
        end
      in
      Mutex.lock t.mutex;
      for s = 0 to slots - 1 do
        Queue.push (task s) t.pending
      done;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      (* the caller is a worker too: help drain this batch's queue *)
      let continue_ = ref true in
      while !continue_ do
        Mutex.lock t.mutex;
        match Queue.take_opt t.pending with
        | Some task ->
            Mutex.unlock t.mutex;
            task ()
        | None ->
            Mutex.unlock t.mutex;
            continue_ := false
      done;
      (* wait for slots other domains are still executing *)
      let bar0 = if prof then Cdr_obs.Clock.monotonic () else 0.0 in
      Mutex.lock t.mutex;
      while Atomic.get remaining > 0 do
        Condition.wait t.batch_done t.mutex
      done;
      Mutex.unlock t.mutex;
      if prof then begin
        let now = Cdr_obs.Clock.monotonic () in
        let wall = now -. wall0 in
        let busy = Array.fold_left ( +. ) 0.0 busy_s in
        let idle = Float.max 0.0 ((float_of_int t.jobs *. wall) -. busy) in
        Cdr_obs.Metrics.incr ~labels "pool.dispatches";
        Cdr_obs.Metrics.add ~labels "pool.tasks" slots;
        Cdr_obs.Metrics.observe ~labels ~base:2.0 "pool.busy_seconds" busy;
        Cdr_obs.Metrics.observe ~labels ~base:2.0 "pool.idle_seconds" idle;
        Cdr_obs.Metrics.observe ~labels ~base:2.0 "pool.barrier_seconds" (now -. bar0)
      end;
      Atomic.set t.busy false;
      match Atomic.get failure with Some e -> raise e | None -> ()
    end

(* The optional-pool variant the fixed-slot-grid kernels are written
   against: a caller that computed a slot grid from its data structure alone
   runs the same slots in the same order with or without a pool, so the
   serial fallback is the parallel schedule with one worker — not a separate
   code path that could drift numerically. *)
let run_slots_opt pool ~slots f =
  match pool with
  | Some t when slots > 1 -> run_slots t ~slots f
  | Some _ | None -> run_serial slots f

(* Enter a phase region: while [body] runs on this domain, every batch it
   issues through this pool rides the epoch/ticket protocol above instead of
   the queue. Helpers are enlisted once (through the ordinary queue, so they
   are just pool workers for the duration) and released when [body] returns.
   With no spare cores the region degenerates to holding [busy], which sends
   every nested batch down the zero-dispatch serial fast path — the same
   slot schedule either way, so results are bitwise unchanged. *)
let run_phases pool body =
  match pool with
  | None -> body ()
  | Some t ->
      if t.jobs = 1 || t.stopped || not (Atomic.compare_and_set t.busy false true) then body ()
      else begin
        let members = region_members t in
        if members = 0 then Fun.protect ~finally:(fun () -> Atomic.set t.busy false) body
        else begin
          ensure_workers t;
          let r =
            {
              r_owner = Domain.self ();
              r_members = members;
              r_epoch = Atomic.make 0;
              r_stop = Atomic.make false;
              r_job = ignore;
              r_slots = 0;
              r_next = Atomic.make 0;
              r_done = Atomic.make 0;
              r_failure = Atomic.make None;
              r_sleepers = Atomic.make 0;
              r_waiting = Atomic.make false;
              r_exited = Atomic.make 0;
              r_mutex = Mutex.create ();
              r_wake = Condition.create ();
            }
          in
          Atomic.set t.region (Some r);
          Mutex.lock t.mutex;
          for _ = 1 to members do
            Queue.push (region_worker r) t.pending
          done;
          Condition.broadcast t.work;
          Mutex.unlock t.mutex;
          Fun.protect
            ~finally:(fun () ->
              Atomic.set t.region None;
              Atomic.set r.r_stop true;
              Mutex.lock r.r_mutex;
              Condition.broadcast r.r_wake;
              Mutex.unlock r.r_mutex;
              (* helpers must leave the region loop before the pool's queue
                 (and [busy]) are handed back *)
              let spins = ref 0 in
              while Atomic.get r.r_exited < members && !spins < spin_budget do
                incr spins;
                Domain.cpu_relax ()
              done;
              Mutex.lock r.r_mutex;
              while Atomic.get r.r_exited < members do
                Condition.wait r.r_wake r.r_mutex
              done;
              Mutex.unlock r.r_mutex;
              Atomic.set t.busy false)
            body
        end
      end

(* Fixed-shape pairwise reduction over slot indices: merge [src] into [dst]
   for the pair grid (1,0), (3,2), ... then (2,0), (6,4), ... doubling the
   stride each round. The merge tree's shape depends only on [slots], and
   each destination accumulates its sources in a fixed order, so a
   non-associative [merge] (float accumulation) gives identical results for
   any job count — and for no pool at all. *)
let merge_tree ?pool ~slots merge =
  let prof = Atomic.get profiling in
  let t0 = if prof then Cdr_obs.Clock.monotonic () else 0.0 in
  let height = ref 1 in
  while !height < slots do
    let stride = 2 * !height in
    let pairs = (slots + stride - 1) / stride in
    let h = !height in
    run_slots_opt pool ~slots:pairs (fun p ->
        let dst = p * stride in
        let src = dst + h in
        if src < slots then merge ~dst ~src);
    height := stride
  done;
  if prof && slots > 1 then
    Cdr_obs.Metrics.observe ~labels:(current_phase ()) ~base:2.0 "pool.merge_seconds"
      (Cdr_obs.Clock.monotonic () -. t0)

let parallel_for t ?chunk n f =
  if n > 0 then begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Cdr_par.Pool.parallel_for: chunk must be >= 1"
      | None -> max 1 ((n + (4 * t.jobs) - 1) / (4 * t.jobs))
    in
    let chunks = (n + chunk - 1) / chunk in
    run_slots t ~slots:chunks (fun c ->
        let lo = c * chunk in
        let hi = min n (lo + chunk) - 1 in
        for i = lo to hi do
          f i
        done)
  end

let parallel_map t f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    (* seed the result array from index 0 (computed by the caller), then
       fill the rest in parallel: no Obj tricks, still one [f] per index *)
    let out = Array.make n (f a.(0)) in
    parallel_for t (n - 1) (fun i -> out.(i + 1) <- f a.(i + 1));
    out
  end

let map_list t f l = Array.to_list (parallel_map t f (Array.of_list l))

let parallel_reduce t ~map ~combine ~init n =
  if n <= 0 then init
  else begin
    let results = Array.make n None in
    parallel_for t n (fun i -> results.(i) <- Some (map i));
    (* combine strictly in index order: deterministic for any job count *)
    Array.fold_left
      (fun acc r -> match r with Some v -> combine acc v | None -> acc)
      init results
  end
