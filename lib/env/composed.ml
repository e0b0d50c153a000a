(* The composed environment x CDR chain.

   Global state = (regime e, data d, counter c, phase bin p), packed with
   the regime slowest: [(((e * n_data) + d) * n_counter + c) * m + p]. One
   step factorizes as

     P((e, d, c, p) -> (e', d', c', p')) = S[e][e'] * P_e[(d,c,p) -> ...]

   — the environment switches independently per bit, and during the bit
   interval the CDR evolves under the dwell regime's parameters. Two
   representations, mirroring {!Cdr.Model} / {!Cdr.Kron_model}:

   - [`Csr]: {!Cdr.Model.build_reachable}, the base chain's own builder,
     over the per-regime configurations and the switching rows. The base
     chain is its one-regime call, so with the identity environment the
     composed chain is bitwise equal to [build_direct] — the test suite
     pins this.
   - [`Kron]: each regime's matrix-free factorization
     (sum of D (x) C (x) G terms from {!Cdr.Kron_model}) lifted by a
     leading R x R row-selector factor Row_e(S) (row e of the switching
     matrix, other rows empty) via {!Sparse.Kron_op.lift}:

       P = sum_e Row_e(S) (x) [sum_t D (x) C (x) G]_e

     Row_e(S) reaches only global rows with leading index e, so the terms
     partition the row space by dwell regime; row sums are
     (sum_e' S[e][e']) * 1 = 1. The existing operator solvers
     ({!Markov.Power.solve_op}, {!Markov.Op_multigrid}) run unchanged.

   All analyses (regime marginals, conditional densities, BER, slip flux)
   aggregate over the COMPOSED index — never by collapsing regimes first —
   because the quantities of interest are expectations over the joint
   stationary law: the regime-conditional phase density and the per-regime
   tail weight are coupled, and a naive per-regime mixture is exactly the
   approximation the bursty-jitter study quantifies the error of. *)

type repr = Chain of Markov.Chain.t | Kron of Sparse.Kron_op.t

type t = {
  env : Env.t;
  base : Cdr.Config.t;
  configs : Cdr.Config.t array;
  n_states : int;
  n_regimes : int;
  n_data : int;
  n_counter : int;
  m : int;
  op : Cdr_op.t;
  repr : repr;
  regime_code : int -> int;
  data_code : int -> int;
  counter_code : int -> int;
  phase_code : int -> int;
  build_seconds : float;
  mutable iad : Markov.Op_multigrid.setup option;
}

let backend t = match t.repr with Chain _ -> `Csr | Kron _ -> `Kron

let n_states t = t.n_states

let operator t = t.op

(* each representation returns its state count, repr, operator, and the
   packed key [(((e * n_data) + d) * n_counter + c) * m + p] of a state *)
let build_csr env configs =
  let { Cdr.Model.chain; keys; _ } = Cdr.Model.build_reachable ~switch:env.Env.switch configs in
  let op = Cdr_op.Csr_backend.create (Markov.Chain.tpm chain) in
  (Array.length keys, Chain chain, op, Array.get keys)

let build_kron env base configs =
  let r = Array.length configs in
  let m = base.Cdr.Config.grid_points in
  let n_data = Cdr.Data_source.n_states base in
  let n_counter = Cdr.Counter.n_states base in
  let row_selector e =
    let coo = Sparse.Coo.create ~rows:r ~cols:r in
    Array.iteri
      (fun e' s -> if s > 0.0 then Sparse.Coo.add coo ~row:e ~col:e' s)
      env.Env.switch.(e);
    Sparse.Coo.to_csr coo
  in
  let kron =
    Sparse.Kron_op.sum
      (List.init r (fun e ->
           Sparse.Kron_op.lift (row_selector e)
             (Cdr.Kron_model.build configs.(e)).Cdr.Kron_model.kron))
  in
  let op = Cdr_op.Kron_backend.create ~label:("env:" ^ env.Env.name) kron in
  (match Cdr_op.check_stochastic ~tol:1e-9 op with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cdr_env.Composed: composed operator is not stochastic: " ^ msg));
  (r * n_data * n_counter * m, Kron kron, op, Fun.id)

let build ?(backend = `Csr) env base =
  let base = Cdr.Config.create_exn base in
  (match Env.validate env with
  | Ok () -> ()
  | Error m -> invalid_arg ("Cdr_env.Composed.build: " ^ m));
  let r = Env.n_regimes env in
  let configs = Array.init r (Env.regime_config env base) in
  let via = Cdr_op.kind_string backend in
  let built, build_seconds =
    Cdr_obs.Span.timed ~name:"composed.build"
      ~attrs:[ ("via", via); ("regimes", string_of_int r) ]
    @@ fun () ->
    let n_states, repr, op, key =
      match backend with
      | `Csr -> build_csr env configs
      | `Kron -> build_kron env base configs
    in
    let n_data = Cdr.Data_source.n_states base and n_counter = Cdr.Counter.n_states base in
    let m = base.Cdr.Config.grid_points in
    {
      env;
      base;
      configs;
      n_states;
      n_regimes = r;
      n_data;
      n_counter;
      m;
      op;
      repr;
      regime_code = (fun i -> key i / (n_data * n_counter * m));
      data_code = (fun i -> key i / (n_counter * m) mod n_data);
      counter_code = (fun i -> key i / m mod n_counter);
      phase_code = (fun i -> key i mod m);
      build_seconds = 0.0;
      iad = None;
    }
  in
  Cdr_obs.Metrics.incr "env.builds" ~labels:[ ("via", via) ];
  { built with build_seconds }

(* {!Cdr.Model.hierarchy}'s coarsening strategy — halve the phase grid,
   then the counter — on the composed space. The regime and data
   coordinates are never lumped: regimes carry the modulation (collapsing
   them is exactly the mixture approximation), and the data dimension is
   small. Both lead the key, so the base chain's coarsenings apply with
   regime and data as one leading coordinate. *)
let hierarchy t =
  match t.repr with
  | Kron _ ->
      Cdr.Kron_model.box_hierarchy ~lead:(t.n_regimes * t.n_data) ~n_counter:t.n_counter ~m:t.m
  | Chain _ ->
      Cdr.Model.keyed_hierarchy ~n:t.n_states
        ~lead:(fun i -> (t.regime_code i * t.n_data) + t.data_code i)
        ~counter:t.counter_code ~phase:t.phase_code

type solver = Cdr.Model.solver

let solve ?(solver = `Multigrid) ?(ctx = Cdr.Context.default) t =
  let labels =
    [
      ("solver", Cdr.Model.solver_name solver);
      ("backend", Cdr_op.kind_string (backend t));
    ]
  in
  Cdr_obs.Span.with_ ~name:"composed.solve" ~attrs:labels @@ fun () ->
  Cdr_obs.Metrics.incr "env.solves" ~labels;
  let hierarchy () = hierarchy t in
  match t.repr with
  | Chain chain -> Cdr.Model.solve_chain ~solver ~ctx ~hierarchy chain
  | Kron _ ->
      Cdr.Kron_model.solve_op ~solver ~ctx ~hierarchy
        ~iad:(fun () -> t.iad)
        ~set_iad:(fun s -> t.iad <- Some s)
        t.op

(* ---------- functionals of the composed stationary vector ----------

   Everything below aggregates on the composed index (e, p): conditional
   densities and regime weights come from the same joint law, so the
   regime-weighted BER is the exact stationary expectation
   E[tail(config_E, Phi)] — not the per-regime mixture. *)

let check_pi t pi ~fn =
  if Array.length pi <> t.n_states then
    invalid_arg (Printf.sprintf "Cdr_env.Composed.%s: dimension mismatch" fn)

let regime_probs t ~pi =
  check_pi t pi ~fn:"regime_probs";
  Markov.Stat.marginal ~pi ~label:t.regime_code ~n_labels:t.n_regimes

let phase_marginal t ~pi =
  check_pi t pi ~fn:"phase_marginal";
  Markov.Stat.marginal ~pi ~label:t.phase_code ~n_labels:t.m

(* joint (regime, phase) mass, the ingredient of both conditionals *)
let joint_regime_phase t ~pi =
  let joint = Array.make_matrix t.n_regimes t.m 0.0 in
  Array.iteri
    (fun i mass ->
      let row = joint.(t.regime_code i) in
      let p = t.phase_code i in
      row.(p) <- row.(p) +. mass)
    pi;
  joint

let regime_conditional_densities t ~pi =
  check_pi t pi ~fn:"regime_conditional_densities";
  let joint = joint_regime_phase t ~pi in
  Array.map
    (fun row ->
      let mass = Array.fold_left ( +. ) 0.0 row in
      if mass > 0.0 then Array.map (fun v -> v /. mass) row else Array.copy row)
    joint

let regime_ber t ~pi =
  let conditionals = regime_conditional_densities t ~pi in
  Array.mapi (fun e rho -> Cdr.Ber.of_marginal t.configs.(e) ~rho) conditionals

let ber t ~pi =
  check_pi t pi ~fn:"ber";
  let probs = regime_probs t ~pi in
  let bers = regime_ber t ~pi in
  let acc = ref 0.0 in
  Array.iteri (fun e w -> if w > 0.0 then acc := !acc +. (w *. bers.(e))) probs;
  !acc

let slip_rate t ~pi =
  check_pi t pi ~fn:"slip_rate";
  Cdr.Cycle_slip.flux t.base ~phase:t.phase_code t.op ~pi

let mean_bits_between_slips t ~pi = Cdr.Cycle_slip.mean_of_rate (slip_rate t ~pi)

(* The naive approximation the composed model exists to improve on: solve
   each regime's CDR standalone and weight the BERs by the environment's
   stationary law. Exact in the slow-switching limit (the chain equilibrates
   within each dwell); the bursty-jitter study measures its error under
   fast switching. *)
let mixture_ber ?solver ?ctx t =
  let weights = Env.stationary t.env in
  let bers =
    Array.map
      (fun cfg ->
        let model = Cdr.Model.build cfg in
        let result, _ = Cdr.Ber.analyze ?solver ?ctx model in
        result.Cdr.Ber.ber)
      t.configs
  in
  let acc = ref 0.0 in
  Array.iteri (fun e w -> acc := !acc +. (w *. bers.(e))) weights;
  (bers, !acc)
