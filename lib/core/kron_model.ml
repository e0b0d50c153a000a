(* The CDR chain as a sum of Kronecker terms, built from the same
   marginalized probability tables ({!Model.direct_tables}) the direct CSR
   construction enumerates — one source of truth, two representations.

   Global state (data d, counter c, phase bin p) packs exactly like the
   direct path's key, [((d * n_counter) + c) * m + p], which is the
   mixed-radix order of a three-factor Kronecker product with the data
   factor slowest. Conditioning one step on the triple

     (t   : did the data transition,
      o   : the detector output,
      cmd : the counter's command)

   makes the three blocks independent, so

     P = sum over (t, o, cmd) of   D_t  (x)  C_(o,cmd)  (x)  G_(t,o,cmd)

   with
     D_t[d,d']       = P(data d -> d' with transition flag t),
     C_(o,cmd)[c,c'] = 1 when the counter at c under output o moves to c'
                       emitting cmd (a 0/1 selector row per c),
     G_(t,o,cmd)[p,p'] = w_o(p,t) * sum of P(n_r = r) over r moving
                       p -> p' under cmd, where w_o(p,t) is the detector
                       decision probability (pd_probs for t = 1; output
                       forced to Null for t = 0).

   Of the 2*3*3 combinations at most a handful survive (t = 0 only pairs
   with Null, and each (c, o) determines one command); the rest have an
   all-zero factor and are dropped. Row sums are 1 by total probability:
   sum_t q_t(d) * sum_o w_o(p,t) * [one cmd matches] * sum_r P(r) = 1.

   The operator lives on the FULL product space n_data * n_counter * m —
   matrix-free iteration cannot know reachability in advance. The
   stationary distribution puts its mass on the recurrent class (the states
   the direct path's BFS reaches), so phase marginals, BER and slip flux
   agree with the CSR model to solver tolerance; transient unreached states
   carry mass 0 in the limit. *)

type t = {
  config : Config.t;
  kron : Sparse.Kron_op.t;
  op : Cdr_op.t;
  n_states : int;
  n_data : int;
  n_counter : int;
  m : int;
  build_seconds : float;
  mutable iad : Markov.Op_multigrid.setup option;
}

let detector_outputs = [ Phase_detector.Lead; Phase_detector.Null; Phase_detector.Lag ]

let commands = [ Counter.Hold; Counter.Advance; Counter.Retard ]

let build_kron cfg tables =
  let m = cfg.Config.grid_points in
  let n_data = Data_source.n_states cfg in
  let n_counter = Counter.n_states cfg in
  let d_factor t_flag =
    let coo = Sparse.Coo.create ~rows:n_data ~cols:n_data in
    let nonempty = ref false in
    Array.iteri
      (fun d outcomes ->
        List.iter
          (fun (p, d', t) ->
            if t = t_flag && p > 0.0 then begin
              Sparse.Coo.add coo ~row:d ~col:d' p;
              nonempty := true
            end)
          outcomes)
      tables.Model.data_outcomes;
    if !nonempty then Some (Sparse.Coo.to_csr coo) else None
  in
  let c_factor o cmd =
    let coo = Sparse.Coo.create ~rows:n_counter ~cols:n_counter in
    let nonempty = ref false in
    let oi = Phase_detector.output_to_int o in
    for c = 0 to n_counter - 1 do
      let c', cmd' = tables.Model.counter_table.(c).(oi) in
      if cmd' = cmd then begin
        Sparse.Coo.add coo ~row:c ~col:c' 1.0;
        nonempty := true
      end
    done;
    if !nonempty then Some (Sparse.Coo.to_csr coo) else None
  in
  let g_factor t_flag o cmd =
    let coo = Sparse.Coo.create ~rows:m ~cols:m in
    let nonempty = ref false in
    for p = 0 to m - 1 do
      let lead, null, lag = tables.Model.pd_probs.(p) in
      let w =
        if t_flag then
          match o with
          | Phase_detector.Lead -> lead
          | Phase_detector.Null -> null
          | Phase_detector.Lag -> lag
        else match o with Phase_detector.Null -> 1.0 | _ -> 0.0
      in
      if w > 0.0 then
        List.iter
          (fun (r, p_r) ->
            if p_r > 0.0 then begin
              let p' = Phase_error.next_bin cfg ~bin:p ~command:cmd ~nr_bins:r in
              Sparse.Coo.add coo ~row:p ~col:p' (w *. p_r);
              nonempty := true
            end)
          tables.Model.nr_atoms
    done;
    if !nonempty then Some (Sparse.Coo.to_csr coo) else None
  in
  let terms = ref [] in
  List.iter
    (fun t_flag ->
      match d_factor t_flag with
      | None -> ()
      | Some d ->
          List.iter
            (fun o ->
              List.iter
                (fun cmd ->
                  match c_factor o cmd with
                  | None -> ()
                  | Some c -> (
                      match g_factor t_flag o cmd with
                      | None -> ()
                      | Some g -> terms := Sparse.Kron_op.term [ d; c; g ] :: !terms))
                commands)
            detector_outputs)
    [ false; true ];
  Sparse.Kron_op.sum (List.rev !terms)

let build cfg =
  let cfg = Config.create_exn cfg in
  let model, build_seconds =
    Cdr_obs.Span.timed ~name:"kron_model.build" @@ fun () ->
    let tables = Model.direct_tables cfg in
    let m = cfg.Config.grid_points in
    let n_data = Data_source.n_states cfg in
    let n_counter = Counter.n_states cfg in
    let kron = build_kron cfg tables in
    let op = Cdr_op.Kron_backend.create kron in
    (match Cdr_op.check_stochastic ~tol:1e-9 op with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Kron_model.build: factorization is not stochastic: " ^ msg));
    {
      config = cfg;
      kron;
      op;
      n_states = n_data * n_counter * m;
      n_data;
      n_counter;
      m;
      build_seconds = 0.0;
      iad = None;
    }
  in
  Cdr_obs.Metrics.incr "model.builds" ~labels:[ ("via", "kron") ];
  { model with build_seconds }

let operator t = t.op

let n_states t = t.n_states

let data_code t i = i / (t.n_counter * t.m)

let counter_code t i = i / t.m mod t.n_counter

let phase_bin t i = i mod t.m

let index_of t ~data ~counter ~phase =
  if
    data < 0 || data >= t.n_data || counter < 0 || counter >= t.n_counter || phase < 0
    || phase >= t.m
  then None
  else Some ((((data * t.n_counter) + counter) * t.m) + phase)

(* {!Model.keyed_hierarchy}'s strategy — halve the phase grid, then the
   counter — on a full product space [lead * n_counter * m], where every
   tuple exists and the lumping maps are pure arithmetic. *)
let box_hierarchy ~lead ~n_counter ~m =
  let rec go ~n_counter ~m acc =
    let n = lead * n_counter * m in
    if n <= Markov.Gth.max_direct_size || (m <= 1 && n_counter <= 1) then List.rev acc
    else if m > 1 then begin
      let mc = (m + 1) / 2 in
      let map =
        Array.init n (fun i ->
            let p = i mod m and dc = i / m in
            (dc * mc) + (p / 2))
      in
      go ~n_counter ~m:mc (Markov.Partition.create map :: acc)
    end
    else begin
      let cc = (n_counter + 1) / 2 in
      let map =
        Array.init n (fun i ->
            let p = i mod m in
            let c = i / m mod n_counter in
            let d = i / (m * n_counter) in
            (((d * cc) + (c / 2)) * m) + p)
      in
      go ~n_counter:cc ~m (Markov.Partition.create map :: acc)
    end
  in
  go ~n_counter ~m []

let hierarchy t = box_hierarchy ~lead:t.n_data ~n_counter:t.n_counter ~m:t.m

type solver = Model.solver

let solve_op ~solver ~ctx ~hierarchy ~iad ~set_iad op =
  let { Context.tol; trace; pool; cancel; _ } = ctx in
  let init = Context.init_for ctx (Cdr_op.dim op) in
  match solver with
  | `Power -> Markov.Power.solve_op ~tol ?init ?trace ?pool op
  | `Gauss_seidel -> invalid_arg "Kron_model.solve_op: no matrix-free Gauss-Seidel sweep"
  | `Multigrid -> (
      match hierarchy () with
      | [] ->
          (* the whole model fits a direct solve; no aggregation level to
             run the IAD cycle through *)
          Markov.Power.solve_op ~tol ?init ?trace ?pool op
      | partition :: coarse_hierarchy ->
          (* the IAD setup (partition arrays, workspaces, aggregated coarse
             pattern) depends only on the operator's structure: prepare
             once, reuse for every solve against this model *)
          let setup =
            match iad () with
            | Some s when Markov.Op_multigrid.matches s op -> s
            | _ ->
                let s = Markov.Op_multigrid.prepare ~coarse_hierarchy ~partition op in
                set_iad s;
                s
          in
          fst (Markov.Op_multigrid.solve_with ~tol ?init ?trace ?pool ?cancel setup op))

let solve ?(solver = `Multigrid) ?(ctx = Context.default) t =
  let labels = [ ("solver", Model.solver_name solver); ("backend", "kron") ] in
  Cdr_obs.Span.with_ ~name:"model.solve" ~attrs:labels @@ fun () ->
  Cdr_obs.Metrics.incr "model.solves" ~labels;
  solve_op ~solver ~ctx
    ~hierarchy:(fun () -> hierarchy t)
    ~iad:(fun () -> t.iad)
    ~set_iad:(fun s -> t.iad <- Some s)
    t.op

let phase_marginal t ~pi =
  Markov.Stat.marginal ~pi ~label:(fun i -> i mod t.m) ~n_labels:t.m

let slip_rate t ~pi = Cycle_slip.flux t.config ~phase:(phase_bin t) t.op ~pi

let mean_time_between_slips t ~pi = Cycle_slip.mean_of_rate (slip_rate t ~pi)
