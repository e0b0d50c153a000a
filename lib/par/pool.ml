(* A work queue drained by [jobs - 1] persistent domains plus the caller.

   Batches are the unit of coordination: [run_slots] enqueues one task per
   slot, the caller helps drain the queue, then waits on a condition for the
   stragglers other domains picked up. Which domain runs which slot is
   scheduling-dependent, but every combinator built on top writes results
   into slot-indexed storage and combines slots in a fixed order, so the
   values computed are independent of the schedule. *)

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
}

let max_jobs = 64 (* OCaml caps live domains at 128; stay well under *)

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

let run_slots t ~slots f =
  if slots > 0 then
    if t.jobs = 1 || slots = 1 || t.stopped || not (Atomic.compare_and_set t.busy false true)
    then run_serial slots f
    else begin
      ensure_workers t;
      let remaining = Atomic.make slots in
      let failure = Atomic.make None in
      let task s () =
        (try f s
         with e -> ignore (Atomic.compare_and_set failure None (Some e)));
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
      Mutex.lock t.mutex;
      while Atomic.get remaining > 0 do
        Condition.wait t.batch_done t.mutex
      done;
      Mutex.unlock t.mutex;
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

(* Fixed-shape pairwise reduction over slot indices: merge [src] into [dst]
   for the pair grid (1,0), (3,2), ... then (2,0), (6,4), ... doubling the
   stride each round. The merge tree's shape depends only on [slots], and
   each destination accumulates its sources in a fixed order, so a
   non-associative [merge] (float accumulation) gives identical results for
   any job count — and for no pool at all. *)
let merge_tree ?pool ~slots merge =
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
  done

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
