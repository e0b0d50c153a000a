type t = {
  name : string;
  attrs : (string * string) list;
  start : float;
  mutable dur : float;
  mutable minor_words : float;
  mutable children : t list; (* reversed while open; start order once closed *)
}

let forced = Atomic.make false

let recording () = Atomic.get forced || Sink.enabled ()

let set_forced b = Atomic.set forced b

(* The open-span stack is per-domain (domain-local storage): spans started on
   a worker domain nest among themselves and never corrupt another domain's
   tree. Finished roots from every domain land in one mutex-guarded list so
   summaries aggregate the whole process. *)
let stack_key : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let finished_mutex = Mutex.create ()

let finished : t list ref = ref [] (* reversed; guarded by [finished_mutex] *)

let roots () =
  Mutex.lock finished_mutex;
  let r = List.rev !finished in
  Mutex.unlock finished_mutex;
  r

let reset () =
  stack () := [];
  Mutex.lock finished_mutex;
  finished := [];
  Mutex.unlock finished_mutex

let emit_event sp ~depth ~path =
  if Sink.enabled () then
    Sink.emit
      (Jsonl.Obj
         ([
            ("type", Jsonl.Str "span");
            ("name", Jsonl.Str sp.name);
            ("path", Jsonl.Str path);
            ("depth", Jsonl.Num (float_of_int depth));
            ("domain", Jsonl.Num (float_of_int (Domain.self () :> int)));
            ("start_s", Jsonl.Num sp.start);
            ("dur_s", Jsonl.Num sp.dur);
            ("minor_words", Jsonl.Num sp.minor_words);
          ]
         @ List.map (fun (k, v) -> ("attr_" ^ k, Jsonl.Str v)) sp.attrs))

let close sp start_minor =
  sp.dur <- Clock.monotonic () -. sp.start;
  sp.minor_words <- Clock.minor_words () -. start_minor;
  sp.children <- List.rev sp.children;
  let stack = stack () in
  (* pop this span; on an unbalanced stack (an instrument leaked an open
     span), drop the strays above it rather than corrupting the tree *)
  let rec pop = function
    | s :: rest when s == sp -> rest
    | _ :: rest -> pop rest
    | [] -> []
  in
  stack := pop !stack;
  let depth = List.length !stack in
  let path = String.concat "/" (List.rev_map (fun s -> s.name) !stack) in
  let path = if path = "" then sp.name else path ^ "/" ^ sp.name in
  (match !stack with
  | parent :: _ -> parent.children <- sp :: parent.children
  | [] ->
      Mutex.lock finished_mutex;
      finished := sp :: !finished;
      Mutex.unlock finished_mutex);
  emit_event sp ~depth ~path

let with_ ?(attrs = []) ~name f =
  if not (recording ()) then f ()
  else begin
    let sp =
      { name; attrs; start = Clock.monotonic (); dur = 0.0; minor_words = 0.0; children = [] }
    in
    let start_minor = Clock.minor_words () in
    let stack = stack () in
    stack := sp :: !stack;
    match f () with
    | v ->
        close sp start_minor;
        v
    | exception e ->
        close sp start_minor;
        raise e
  end

let timed ?attrs ~name f =
  let t0 = Clock.monotonic () in
  let v = with_ ?attrs ~name f in
  (v, Clock.monotonic () -. t0)
