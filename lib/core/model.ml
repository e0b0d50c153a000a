(* the output of {!build_reachable}; declared before [t] so that [t]'s
   [chain] field wins unannotated field lookups below *)
type reachable = { chain : Markov.Chain.t; keys : int array; index : int array }

type t = {
  config : Config.t;
  chain : Markov.Chain.t;
  n_states : int;
  data_code : int -> int;
  counter_code : int -> int;
  phase_bin : int -> int;
  index_of : data:int -> counter:int -> phase:int -> int option;
  build_seconds : float;
}

let initial_state cfg =
  ( Data_source.encode cfg { Data_source.bit = 0; run = 1 },
    Counter.encode cfg 0,
    (* phase bin representing 0 phase error *)
    cfg.Config.grid_points / 2 )

let network cfg =
  let cfg = Config.create_exn cfg in
  let data = Data_source.component cfg in
  let pd = Phase_detector.component cfg in
  let counter = Counter.component cfg in
  let phase = Phase_error.component cfg in
  let coin01, coin10 = Data_source.coin_sources cfg in
  let nw, _, _ = Phase_detector.nw_source cfg in
  let nr, _ = Phase_error.nr_source cfg in
  let open Fsm.Network in
  (* component order: data(0), pd(1), counter(2), phase(3); pd reads the
     phase through registered feedback *)
  let net =
    create
      ~sources:[| coin01; coin10; nw; nr |]
      ~components:[| data; pd; counter; phase |]
      ~wiring:
        [|
          [| From_source 0; From_source 1 |];
          [| From_component 0; From_source 2; From_state 3 |];
          [| From_component 1 |];
          [| From_component 2; From_source 3 |];
        |]
  in
  let d0, c0, p0 = initial_state cfg in
  (net, [| d0; 0; c0; p0 |])

let of_indexed ~config ~chain ~states ~build_seconds =
  (* [states] maps chain index -> (data, counter, phase) *)
  let n = Array.length states in
  let table = Hashtbl.create (2 * n) in
  Array.iteri (fun i key -> Hashtbl.replace table key i) states;
  {
    config;
    chain;
    n_states = n;
    data_code = (fun i -> let d, _, _ = states.(i) in d);
    counter_code = (fun i -> let _, c, _ = states.(i) in c);
    phase_bin = (fun i -> let _, _, p = states.(i) in p);
    index_of = (fun ~data ~counter ~phase -> Hashtbl.find_opt table (data, counter, phase));
    build_seconds;
  }

let build_via_network cfg =
  let cfg = Config.create_exn cfg in
  let model, build_seconds =
    Cdr_obs.Span.timed ~name:"model.build" ~attrs:[ ("via", "network") ] (fun () ->
        let net, initial = network cfg in
        let built = Fsm.Network.build_chain net ~initial in
        let states = Array.map (fun s -> (s.(0), s.(2), s.(3))) built.Fsm.Network.states in
        of_indexed ~config:cfg ~chain:built.Fsm.Network.chain ~states ~build_seconds:0.0)
  in
  Cdr_obs.Metrics.incr "model.builds" ~labels:[ ("via", "network") ];
  { model with build_seconds }

(* Precomputed successor-enumeration tables for the direct construction:
   each noise source marginalized where it acts. They depend only on the
   configuration, and recomputing them is cheap relative to the reachability
   BFS — [rebuild] recomputes the tables but skips the BFS. *)
type direct_tables = {
  data_outcomes : (float * int * bool) list array;
      (* per data state: (prob, next data, transition?) *)
  pd_probs : (float * float * float) array; (* per phase bin: lead/null/lag *)
  counter_table : (int * Counter.command) array array;
  nr_atoms : (int * float) list;
}

let direct_tables cfg =
  let m = cfg.Config.grid_points in
  let n_data = Data_source.n_states cfg in
  let n_counter = Counter.n_states cfg in
  (* data outcomes per data state: (prob, next data, transition?) via the
     component's own step function on the four coin combinations *)
  let data_comp = Data_source.component cfg in
  let data_outcomes =
    Array.init n_data (fun d ->
        let acc = Hashtbl.create 4 in
        List.iter
          (fun (c01, c10, p) ->
            if p > 0.0 then begin
              let d', out = data_comp.Fsm.Component.step d [| c01; c10 |] in
              let t = out = Data_source.output_transition in
              let key = (d', t) in
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc key) in
              Hashtbl.replace acc key (prev +. p)
            end)
          (let p01 = cfg.Config.p01 and p10 = cfg.Config.p10 in
           [
             (1, 1, p01 *. p10);
             (1, 0, p01 *. (1.0 -. p10));
             (0, 1, (1.0 -. p01) *. p10);
             (0, 0, (1.0 -. p01) *. (1.0 -. p10));
           ]);
        Hashtbl.fold (fun (d', t) p l -> (p, d', t) :: l) acc [])
  in
  (* phase-detector decision probabilities per phase bin, from the same
     discretized n_w the network path uses *)
  let nw, scale = Config.nw_pmf cfg in
  let dead_zone = cfg.Config.detector_dead_zone in
  let pd_probs =
    Array.init m (fun bin ->
        let phase_bins = bin - (m / 2) in
        let lead = ref 0.0 and lag = ref 0.0 and null = ref 0.0 in
        Prob.Pmf.iter nw (fun k w ->
            let s = phase_bins + (k * scale) in
            if s > dead_zone then lead := !lead +. w
            else if s < -dead_zone then lag := !lag +. w
            else null := !null +. w);
        (!lead, !null, !lag))
  in
  (* counter transitions per (state, detector output) *)
  let counter_comp = Counter.component cfg in
  let counter_table =
    Array.init n_counter (fun c ->
        Array.init Phase_detector.n_outputs (fun o ->
            let c', cmd = counter_comp.Fsm.Component.step c [| o |] in
            (c', Counter.command_of_int cmd)))
  in
  let nr_atoms = Prob.Pmf.fold cfg.Config.nr ~init:[] ~f:(fun acc k w -> (k, w) :: acc) in
  { data_outcomes; pd_probs; counter_table; nr_atoms }

(* Enumerate the successors of one (data, counter, phase) state: calls
   [f (d', c', phase') p] once per (not necessarily distinct) outcome.
   Successor enumeration per state is O(data outcomes * detector outcomes *
   |n_r| support). *)
let iter_successors cfg tables ~data:d ~counter:c ~phase f =
  let p_lead, p_null_tie, p_lag = tables.pd_probs.(phase) in
  List.iter
    (fun (p_data, d', t) ->
      let detector_outcomes =
        if t then
          [
            (p_lead, Phase_detector.Lead);
            (p_null_tie, Phase_detector.Null);
            (p_lag, Phase_detector.Lag);
          ]
        else [ (1.0, Phase_detector.Null) ]
      in
      List.iter
        (fun (p_pd, o) ->
          if p_pd > 0.0 then begin
            let c', cmd = tables.counter_table.(c).(Phase_detector.output_to_int o) in
            List.iter
              (fun (r, p_r) ->
                let phase' = Phase_error.next_bin cfg ~bin:phase ~command:cmd ~nr_bins:r in
                f (d', c', phase') (p_data *. p_pd *. p_r))
              tables.nr_atoms
          end)
        detector_outcomes)
    tables.data_outcomes.(d)

(* The original hashtable-and-COO direct construction, kept verbatim as the
   reference the flat-state path ({!build_direct}) is pinned against: the
   test suite asserts both produce bitwise-identical chains. Not used on any
   production path. *)
let build_direct_reference cfg =
  let cfg = Config.create_exn cfg in
  let model, build_seconds =
    Cdr_obs.Span.timed ~name:"model.build" ~attrs:[ ("via", "direct-ref") ] @@ fun () ->
  let tables = direct_tables cfg in
  (* BFS over reachable (data, counter, phase) states *)
  let index = Hashtbl.create 4096 in
  let order = ref [] in
  let count = ref 0 in
  let register key =
    match Hashtbl.find_opt index key with
    | Some i -> i
    | None ->
        let i = !count in
        Hashtbl.add index key i;
        order := key :: !order;
        incr count;
        i
  in
  let d0, c0, p0 = initial_state cfg in
  let start_key = (d0, c0, p0) in
  ignore (register start_key);
  let queue = Queue.create () in
  Queue.add start_key queue;
  let rows = ref [] in
  while not (Queue.is_empty queue) do
    let ((d, c, phase) as key) = Queue.pop queue in
    let row = register key in
    let row_acc = Hashtbl.create 32 in
    let add key' p =
      let fresh = not (Hashtbl.mem index key') in
      let col = register key' in
      if fresh then Queue.add key' queue;
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt row_acc col) in
      Hashtbl.replace row_acc col (prev +. p)
    in
    iter_successors cfg tables ~data:d ~counter:c ~phase add;
    rows := (row, Hashtbl.fold (fun col p acc -> (col, p) :: acc) row_acc []) :: !rows
  done;
  let n = !count in
  let acc = Sparse.Coo.create ~rows:n ~cols:n in
  List.iter
    (fun (row, entries) -> List.iter (fun (col, p) -> Sparse.Coo.add acc ~row ~col p) entries)
    !rows;
  let chain = Markov.Chain.of_csr ~tol:1e-9 (Sparse.Coo.to_csr acc) in
  let states = Array.of_list (List.rev !order) in
  of_indexed ~config:cfg ~chain ~states ~build_seconds:0.0
  in
  Cdr_obs.Metrics.incr "model.builds" ~labels:[ ("via", "direct-ref") ];
  { model with build_seconds }

(* The flat-state reachability builder (see the interface for the packing).
   [state_of_key] maps packed key -> chain index (-1 when unvisited);
   [order] is both the BFS worklist and the final index -> key enumeration,
   in FIFO discovery order — the reference path's registration order. The
   base chain is the one-regime call with [switch = [|[|1.0|]|]]: every
   emitted value is [1.0 *. p = p] and duplicates sum in the reference
   path's order, so its chain is bitwise {!build_direct_reference}'s. *)
let build_reachable ?pool ~switch configs =
  let r = Array.length configs in
  let tables = Array.map direct_tables configs in
  let base = configs.(0) in
  let m = base.Config.grid_points in
  let n_data = Data_source.n_states base in
  let n_counter = Counter.n_states base in
  let block = n_data * n_counter * m in
  let pack ~e ~data ~counter ~phase =
    ((((((e * n_data) + data) * n_counter) + counter) * m) + phase : int)
  in
  let state_of_key = Array.make (r * block) (-1) in
  let order = Array.make (r * block) 0 in
  let count = ref 0 in
  let register key =
    if state_of_key.(key) < 0 then begin
      state_of_key.(key) <- !count;
      order.(!count) <- key;
      incr count
    end
  in
  (* [f key' (S[e][e'] * p)] for every successor of the state packed as [key] *)
  let iter_row key f =
    let e = key / block in
    let row = switch.(e) in
    iter_successors configs.(e) tables.(e)
      ~data:(key / (n_counter * m) mod n_data)
      ~counter:(key / m mod n_counter) ~phase:(key mod m)
      (fun (d', c', phase') p ->
        for e' = 0 to r - 1 do
          let s = row.(e') in
          if s > 0.0 then f (pack ~e:e' ~data:d' ~counter:c' ~phase:phase') (s *. p)
        done)
  in
  let d0, c0, p0 = initial_state base in
  register (pack ~e:0 ~data:d0 ~counter:c0 ~phase:p0);
  let processed = ref 0 in
  while !processed < !count do
    let key = order.(!processed) in
    incr processed;
    iter_row key (fun key' _p -> register key')
  done;
  let n = !count in
  let emit_row i emit = iter_row order.(i) (fun key' p -> emit state_of_key.(key') p) in
  let csr = Sparse.Csr.assemble ?pool ~rows:n ~cols:n emit_row in
  { chain = Markov.Chain.of_csr ~tol:1e-9 csr; keys = Array.sub order 0 n; index = state_of_key }

let build_direct ?pool cfg =
  let cfg = Config.create_exn cfg in
  let model, build_seconds =
    Cdr_obs.Span.timed ~name:"model.build" ~attrs:[ ("via", "direct") ] @@ fun () ->
  let { chain; keys; index } = build_reachable ?pool ~switch:[| [| 1.0 |] |] [| cfg |] in
  let m = cfg.Config.grid_points in
  let n_data = Data_source.n_states cfg in
  let n_counter = Counter.n_states cfg in
  {
    config = cfg;
    chain;
    n_states = Array.length keys;
    data_code = (fun i -> keys.(i) / (n_counter * m));
    counter_code = (fun i -> keys.(i) / m mod n_counter);
    phase_bin = (fun i -> keys.(i) mod m);
    index_of =
      (fun ~data ~counter ~phase ->
        if
          data < 0 || data >= n_data || counter < 0 || counter >= n_counter || phase < 0
          || phase >= m
        then None
        else
          let s = index.((((data * n_counter) + counter) * m) + phase) in
          if s >= 0 then Some s else None);
    build_seconds = 0.0;
  }
  in
  Cdr_obs.Metrics.incr "model.builds" ~labels:[ ("via", "direct") ];
  { model with build_seconds }

let build = build_direct

(* The state space (and with it the reachability BFS) is determined by these
   parameters alone; the noise parameters only move transition values and,
   occasionally, the set of nonzeros. *)
let same_state_space a b =
  a.Config.grid_points = b.Config.grid_points
  && a.Config.n_phases = b.Config.n_phases
  && a.Config.counter_length = b.Config.counter_length
  && a.Config.max_run = b.Config.max_run

exception Pattern_mismatch

let rebuild ?pool t cfg =
  let cfg = Config.create_exn cfg in
  let attempt () =
    if not (same_state_space t.config cfg) then None
    else begin
      let tables = direct_tables cfg in
      let tpm = Markov.Chain.tpm t.chain in
      let row_ptr = tpm.Sparse.Csr.row_ptr in
      let values = Array.make (Sparse.Csr.nnz tpm) 0.0 in
      let n = t.n_states in
      try
        (* re-enumerate each row's successors under the new noise parameters
           straight into the cached sparsity pattern: no BFS, no state
           registration, no per-row hashtable — entry positions come from a
           binary search in the cached row ([Csr.row_index]) and duplicates
           accumulate in emission order, exactly as a fresh build would sum
           them. Rows own disjoint value segments, so [?pool] splits them
           over slots with bit-identical results for every job count. *)
        let slots = if n < 4096 then 1 else min 16 (n / 2048) in
        Cdr_par.Pool.run_slots_opt pool ~slots (fun s ->
            for i = s * n / slots to (((s + 1) * n / slots) - 1) do
              iter_successors cfg tables ~data:(t.data_code i) ~counter:(t.counter_code i)
                ~phase:(t.phase_bin i)
                (fun (data, counter, phase) p ->
                  match t.index_of ~data ~counter ~phase with
                  | None -> raise Pattern_mismatch
                  | Some col -> (
                      match Sparse.Csr.row_index tpm i col with
                      | -1 ->
                          (* a nonzero outside the cached pattern means the
                             pattern moved; a zero contribution outside it
                             was invisible to the reference path's
                             mismatch check too, so it is dropped *)
                          if p > 0.0 then raise Pattern_mismatch
                      | k -> values.(k) <- values.(k) +. p));
              (* every cached nonzero must stay live: a vanished entry means
                 a fresh build would produce a different CSR *)
              for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
                if not (values.(k) > 0.0) then raise Pattern_mismatch
              done
            done);
        (* [refill] shares the structure arrays, so a multigrid setup built
           on the old chain matches the new one in O(1) *)
        let chain = Markov.Chain.of_csr ~tol:1e-9 (Sparse.Csr.refill tpm values) in
        Some { t with config = cfg; chain }
      with Pattern_mismatch | Markov.Chain.Not_stochastic _ -> None
    end
  in
  match Cdr_obs.Span.timed ~name:"model.build" ~attrs:[ ("via", "rebuild") ] attempt with
  | Some model, build_seconds ->
      Cdr_obs.Metrics.incr "model.rebuilds" ~labels:[ ("pattern", "reused") ];
      ({ model with build_seconds }, true)
  | None, _ ->
      Cdr_obs.Metrics.incr "model.rebuilds" ~labels:[ ("pattern", "fresh") ];
      (build_direct ?pool cfg, false)

let operator t = Cdr_op.Csr_backend.create (Markov.Chain.tpm t.chain)

let phase_marginal t ~pi =
  Markov.Stat.marginal ~pi ~label:t.phase_bin ~n_labels:t.config.Config.grid_points

(* The coarsening the structured multigrid hierarchies share: every state
   is keyed by (lead, counter, phase), where [lead] packs the coordinates
   that are never lumped (the data state; regime and data on a composed
   chain). Each level lumps pairs of consecutive phase bins (the paper's
   strategy); once the phase grid cannot be halved any further but the
   level is still too large for a direct solve, counter pairs are lumped as
   well (the counter is the other slow coordinate on long-filter designs).
   Coarse states are numbered in order of first appearance. *)
let keyed_hierarchy ~n ~lead ~counter ~phase =
  let keys = Array.init n (fun i -> (lead i, counter i, phase i)) in
  let rec go keys acc =
    let n = Array.length keys in
    let max_phase = Array.fold_left (fun m (_, _, p) -> max m p) 0 keys in
    let max_counter = Array.fold_left (fun m (_, c, _) -> max m c) 0 keys in
    if n <= Markov.Gth.max_direct_size || (max_phase < 1 && max_counter < 1) then List.rev acc
    else begin
      let coarse_key =
        if max_phase >= 1 then fun (l, c, p) -> (l, c, p / 2) else fun (l, c, p) -> (l, c / 2, p)
      in
      let table = Hashtbl.create (2 * n) in
      let coarse_keys = ref [] in
      let next = ref 0 in
      let map =
        Array.map
          (fun key0 ->
            let key = coarse_key key0 in
            match Hashtbl.find_opt table key with
            | Some b -> b
            | None ->
                let b = !next in
                Hashtbl.add table key b;
                coarse_keys := key :: !coarse_keys;
                incr next;
                b)
          keys
      in
      let partition = Markov.Partition.create map in
      go (Array.of_list (List.rev !coarse_keys)) (partition :: acc)
    end
  in
  go keys []

let hierarchy t =
  keyed_hierarchy ~n:t.n_states ~lead:t.data_code ~counter:t.counter_code ~phase:t.phase_bin

type solver =
  [ `Multigrid | `Power | `Gauss_seidel | `Jacobi | `Aggregation | `Arnoldi ]

let solver_name : solver -> string = function
  | `Multigrid -> "multigrid"
  | `Power -> "power"
  | `Gauss_seidel -> "gauss-seidel"
  | `Jacobi -> "jacobi"
  | `Arnoldi -> "arnoldi"
  | `Aggregation -> "aggregation"

let solve_chain ?(solver = `Multigrid) ~ctx ~hierarchy chain =
  let { Context.tol; cache; trace; pool; smoother; cancel; _ } = ctx in
  let init = Context.init_for ctx (Markov.Chain.n_states chain) in
  match solver with
  | `Multigrid ->
      let solution, _stats =
        match cache with
        | Some cache ->
            let s = Solver_cache.setup cache ~smoother ~hierarchy chain in
            Markov.Multigrid.solve_with ~tol ?init ?trace ?pool ?cancel s chain
        | None ->
            Markov.Multigrid.solve ~tol ?init ?trace ?pool ?cancel ~smoother
              ~hierarchy:(hierarchy ()) chain
      in
      solution
  | `Power -> Markov.Power.solve ~tol ?init ?trace ?pool chain
  | `Gauss_seidel ->
      Markov.Splitting.solve ~method_:Markov.Splitting.Gauss_seidel ~tol ?init ?trace ?pool chain
  | `Jacobi -> Markov.Splitting.solve ~method_:Markov.Splitting.Jacobi ~tol ?init ?trace ?pool chain
  | `Arnoldi -> Markov.Arnoldi.solve ~tol ?trace chain
  | `Aggregation ->
      let partition =
        match hierarchy () with
        | first :: _ -> first
        | [] -> Markov.Partition.identity (Markov.Chain.n_states chain)
      in
      Markov.Aggregation.solve ~tol ~partition chain

let solve ?(solver = `Multigrid) ?(ctx = Context.default) t =
  Cdr_obs.Span.with_ ~name:"model.solve" ~attrs:[ ("solver", solver_name solver) ] @@ fun () ->
  Cdr_obs.Metrics.incr "model.solves" ~labels:[ ("solver", solver_name solver) ];
  solve_chain ~solver ~ctx ~hierarchy:(fun () -> hierarchy t) t.chain
