(* Structure-keyed cache of multigrid setups (see Markov.Multigrid.setup).

   A sweep's points solve chains whose sparsity patterns are identical
   (sigma continuation) or drawn from a tiny set of shapes (counter sweeps),
   so the symbolic phase — patterns, transposes, levels, workspaces — is
   paid once per shape and looked up afterwards. Lookup delegates to
   [Multigrid.matches]: O(1) for refilled chains whose structure arrays are
   physically shared, O(nnz) for structurally equal strangers.

   The cache is bounded by bytes, not entries: setups range from a few MB
   (small grids) to tens of MB (env chains), so a count bound either wastes
   memory or thrashes. Each entry carries its [Multigrid.setup_bytes],
   computed once at insertion.

   A cache is deliberately not thread-safe: setups own mutable workspaces,
   so each sweep worker threads its own cache through its own chunk of
   points (see Sweep). The registry counters are global and domain-safe;
   the cache writes no gauge, since several caches live in one process
   (the service publishes its own cache's figures). *)

type entry = { setup : Markov.Multigrid.setup; bytes : int }

type t = {
  max_bytes : int;
  mutable entries : entry list; (* most recently used first *)
  mutable bytes : int; (* sum of the entries' bytes, never above max_bytes *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable request_key : string option; (* label for the next lookups' metrics *)
}

let default_max_bytes = 128 * 1024 * 1024

let create ?(max_bytes = default_max_bytes) () =
  if max_bytes < 1 then invalid_arg "Solver_cache.create: max_bytes must be >= 1";
  { max_bytes; entries = []; bytes = 0; hits = 0; misses = 0; evictions = 0; request_key = None }

let set_request_key t key = t.request_key <- key

(* The labeled counter series must stay bounded no matter what keys callers
   produce (a load generator can invent thousands of structures): the first
   [max_label_keys] distinct keys get their own series, everything after
   collapses into "other". Global across caches, because the registry is. *)
let max_label_keys = 16

let key_mutex = Mutex.create ()

let seen_keys : (string, unit) Hashtbl.t = Hashtbl.create 16

let label_of_key k =
  Mutex.lock key_mutex;
  let v =
    if Hashtbl.mem seen_keys k then k
    else if Hashtbl.length seen_keys < max_label_keys then begin
      Hashtbl.add seen_keys k ();
      k
    end
    else "other"
  in
  Mutex.unlock key_mutex;
  v

(* unlabeled series always recorded (dashboards and the bench greps key on
   them); the keyed series is additional, only when a request key is set *)
let record t name n =
  Cdr_obs.Metrics.add name n;
  match t.request_key with
  | Some k -> Cdr_obs.Metrics.add ~labels:[ ("key", label_of_key k) ] name n
  | None -> ()

let take_first p l =
  let rec go acc = function
    | [] -> None
    | x :: rest when p x -> Some (x, List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
  in
  go [] l

(* Drop least recently used entries until the total fits the budget: what
   stays is the longest most-recent prefix whose bytes fit. *)
let evict_to_budget t =
  let rec keep budget = function
    | (e : entry) :: rest when e.bytes <= budget -> e :: keep (budget - e.bytes) rest
    | _ -> []
  in
  let kept = keep t.max_bytes t.entries in
  let dropped = List.length t.entries - List.length kept in
  if dropped > 0 then begin
    t.entries <- kept;
    t.bytes <- List.fold_left (fun acc (e : entry) -> acc + e.bytes) 0 kept;
    t.evictions <- t.evictions + dropped;
    record t "solver_cache.evictions" dropped
  end

(* [?smoother] stays only because the frozen perfbench replay passes it *)
let setup t ?smoother:(_ : [ `Lex ] option) ~hierarchy chain =
  match take_first (fun e -> Markov.Multigrid.matches e.setup chain) t.entries with
  | Some (e, rest) ->
      t.hits <- t.hits + 1;
      record t "solver_cache.hits" 1;
      t.entries <- e :: rest;
      e.setup
  | None ->
      t.misses <- t.misses + 1;
      record t "solver_cache.misses" 1;
      let setup = Markov.Multigrid.setup ~hierarchy:(hierarchy ()) chain in
      let bytes = Markov.Multigrid.setup_bytes setup in
      (* a setup larger than the whole budget serves its caller once and is
         not retained: caching it would evict everything for an entry that
         must itself go at the next insertion *)
      if bytes <= t.max_bytes then begin
        t.entries <- { setup; bytes } :: t.entries;
        t.bytes <- t.bytes + bytes;
        evict_to_budget t
      end;
      setup

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let length t = List.length t.entries
let bytes t = t.bytes
