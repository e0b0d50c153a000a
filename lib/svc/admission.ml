type 'a t = {
  bound : int;
  labels : (string * string) list;
  q : 'a Queue.t;
  mu : Mutex.t;
  cond : Condition.t;
  mutable closed : bool;
}

let create ?(labels = []) ~bound () =
  if bound < 1 then invalid_arg "Admission.create: bound must be >= 1";
  {
    bound;
    labels;
    q = Queue.create ();
    mu = Mutex.create ();
    cond = Condition.create ();
    closed = false;
  }

let set_depth t =
  Cdr_obs.Metrics.set_gauge ~labels:t.labels "serve.queue_depth"
    (float_of_int (Queue.length t.q))

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let push t x =
  with_lock t (fun () ->
      if t.closed then `Closed
      else if Queue.length t.q >= t.bound then `Overloaded
      else begin
        Queue.push x t.q;
        set_depth t;
        Condition.signal t.cond;
        `Ok
      end)

let pop t =
  with_lock t (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.q) then begin
          let x = Queue.pop t.q in
          set_depth t;
          Some x
        end
        else if t.closed then None
        else begin
          Condition.wait t.cond t.mu;
          wait ()
        end
      in
      wait ())

let drain t =
  with_lock t (fun () ->
      let xs = List.of_seq (Queue.to_seq t.q) in
      Queue.clear t.q;
      set_depth t;
      xs)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.cond)

let length t = with_lock t (fun () -> Queue.length t.q)
