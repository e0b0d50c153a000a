(* Params-keyed memoization of finished responses.

   The serving workload (many small parameter-point queries from a
   config-exploration UI) repeats identical requests constantly, and a
   response is a pure function of the canonical request encoding — so a
   finished response can be replayed byte-for-byte without touching the
   model layer. Entries store the response with its "id" field stripped;
   the hit path re-attaches the requesting id, so a hit is byte-identical
   to the cold solve that populated it (including its recorded elapsed_ms
   and setup-cache deltas — the envelope is replayed verbatim, not
   re-measured).

   Thread-safe under one internal mutex: in router mode the cache is
   shared between the stdio reader thread (lookups) and the
   per-replica response pumps (stores). *)

type entry = { key : string; response : Cdr_obs.Jsonl.t }

type t = {
  capacity : int;
  mu : Mutex.t;
  mutable entries : entry list; (* most recently used first *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Result_cache.create: capacity must be >= 1";
  { capacity; mu = Mutex.create (); entries = []; hits = 0; misses = 0; evictions = 0 }

let capacity t = t.capacity

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let record result n = Cdr_obs.Metrics.add ~labels:[ ("result", result) ] "serve.result_cache" n

let set_size n = Cdr_obs.Metrics.set_gauge "serve.result_cache_entries" (float_of_int n)

let take_first p l =
  let rec go acc = function
    | [] -> None
    | x :: rest when p x -> Some (x, List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
  in
  go [] l

let find t key =
  with_lock t (fun () ->
      match take_first (fun e -> e.key = key) t.entries with
      | Some (e, rest) ->
          t.hits <- t.hits + 1;
          record "hit" 1;
          t.entries <- e :: rest;
          Some e.response
      | None ->
          t.misses <- t.misses + 1;
          record "miss" 1;
          None)

(* insert without counting a miss (load and re-store paths) *)
let push t key response =
  let keep = List.filter (fun e -> e.key <> key) t.entries in
  let entries = { key; response } :: keep in
  let dropped = List.length entries - t.capacity in
  if dropped > 0 then begin
    t.evictions <- t.evictions + dropped;
    record "evict" dropped
  end;
  t.entries <- List.filteri (fun i _ -> i < t.capacity) entries;
  set_size (List.length t.entries)

let store t key response = with_lock t (fun () -> push t key response)

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let length t = with_lock t (fun () -> List.length t.entries)

(* ---------- disk persistence ---------- *)

(* A header line tagging the snapshot format, then one JSONL line per
   entry, least recently used first, so a sequential reload rebuilds the
   same recency order (the last line pushed lands in front). Written to a
   temp file and renamed, so a crash mid-save leaves the previous snapshot
   intact. *)

(* Version 2: responses computed after [mean_bits_to_first_slip] moved to
   the restart chain. Untagged (version 1) snapshots hold first-passage
   answers that were low by orders of magnitude on rare slips. *)
let format_version = 2

let header =
  Cdr_obs.Jsonl.to_string
    (Cdr_obs.Jsonl.Obj [ ("result_cache_format", Num (float_of_int format_version)) ])

let save t path =
  let lines =
    with_lock t (fun () ->
        List.rev_map
          (fun e ->
            Cdr_obs.Jsonl.to_string
              (Cdr_obs.Jsonl.Obj [ ("key", Str e.key); ("response", e.response) ]))
          t.entries)
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc header;
  output_char oc '\n';
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  close_out oc;
  Sys.rename tmp path

let load ?capacity path =
  let t = create ?capacity () in
  (if Sys.file_exists path then
     let ic = open_in path in
     (try
        (* an untagged or differently tagged snapshot is treated as missing *)
        let rec first_line () =
          let line = input_line ic in
          if String.trim line = "" then first_line () else line
        in
        if String.trim (first_line ()) <> header then raise End_of_file;
        while true do
          let line = input_line ic in
          if String.trim line <> "" then
            match Cdr_obs.Jsonl.of_string line with
            | exception Failure _ -> () (* a torn line loses one entry, not the cache *)
            | json -> (
                match
                  ( Option.bind (Cdr_obs.Jsonl.member "key" json) Cdr_obs.Jsonl.to_str,
                    Cdr_obs.Jsonl.member "response" json )
                with
                | Some key, Some response -> push t key response
                | _ -> ())
        done
      with End_of_file -> ());
     close_in ic);
  t
