type params = { max_f : int; adapt_length : int }

let default_params = { max_f = 1; adapt_length = 4 }

type t = {
  config : Config.t;
  params : params;
  chain : Markov.Chain.t;
  n_states : int;
  phase_bin : int -> int;
  freq_value : int -> int;
  build_seconds : float;
}

(* trim commands of the adaptation counter *)
let trim_none = 0
let trim_up = 1
let trim_down = 2

let adapt_component params =
  let l = params.adapt_length in
  let n_states = (2 * l) - 1 in
  let encode v = v + l - 1 in
  let decode code = code - l + 1 in
  let step code inputs =
    let v = decode code in
    match Counter.command_of_int inputs.(0) with
    | Counter.Hold -> (code, trim_none)
    | Counter.Retard ->
        (* the loop keeps pulling the phase back: positive frequency bias *)
        if v + 1 >= l then (encode 0, trim_up) else (encode (v + 1), trim_none)
    | Counter.Advance ->
        if v - 1 <= -l then (encode 0, trim_down) else (encode (v - 1), trim_none)
  in
  Fsm.Component.create ~name:"freq-adapt" ~n_states ~input_cards:[| Counter.n_commands |]
    ~n_outputs:3 ~step
    ~state_name:(fun code -> string_of_int (decode code))
    ~output_name:(fun o -> [| "NONE"; "UP"; "DOWN" |].(o))
    ()

let freq_component params =
  let f = params.max_f in
  let n_states = (2 * f) + 1 in
  (* state code = value + f; saturating register *)
  let step code inputs =
    let v = code - f in
    let v' =
      if inputs.(0) = trim_up then min f (v + 1)
      else if inputs.(0) = trim_down then max (-f) (v - 1)
      else v
    in
    (v' + f, 0)
  in
  Fsm.Component.create ~name:"freq-register" ~n_states ~input_cards:[| 3 |] ~n_outputs:1 ~step
    ~state_name:(fun code -> string_of_int (code - f))
    ()

(* phase error with the frequency register's cancellation wired in *)
let phase_component cfg params =
  let m = cfg.Config.grid_points in
  let _, shift = Phase_error.nr_source cfg in
  let nr_card = Prob.Pmf.max_support cfg.Config.nr + shift + 1 in
  let f = params.max_f in
  let step bin inputs =
    let command = Counter.command_of_int inputs.(0) in
    let freq = inputs.(1) - f in
    let nr_bins = inputs.(2) - shift in
    (* the register cancels [freq] bins of drift every bit interval *)
    (Phase_error.wrap cfg (Phase_error.next_bin cfg ~bin ~command ~nr_bins - freq), 0)
  in
  Fsm.Component.create ~name:"phase-error" ~n_states:m
    ~input_cards:[| Counter.n_commands; (2 * f) + 1; max 1 nr_card |]
    ~n_outputs:1 ~step
    ~state_name:(fun bin -> Printf.sprintf "%.4f" (Config.phase_of_bin cfg bin))
    ()

let build ?(params = default_params) cfg =
  let cfg = Config.create_exn cfg in
  if params.max_f < 0 then invalid_arg "Freq_track: max_f must be >= 0";
  if params.adapt_length < 1 then invalid_arg "Freq_track: adapt_length must be >= 1";
  let start = Unix.gettimeofday () in
  let data = Data_source.component cfg in
  let pd = Phase_detector.component cfg in
  let counter = Counter.component cfg in
  let adapt = adapt_component params in
  let freq = freq_component params in
  let phase = phase_component cfg params in
  let coin01, coin10 = Data_source.coin_sources cfg in
  let nw, _, _ = Phase_detector.nw_source cfg in
  let nr, _ = Phase_error.nr_source cfg in
  let open Fsm.Network in
  (* order: data(0), pd(1), counter(2), adapt(3), freq(4), phase(5) *)
  let net =
    create
      ~sources:[| coin01; coin10; nw; nr |]
      ~components:[| data; pd; counter; adapt; freq; phase |]
      ~wiring:
        [|
          [| From_source 0; From_source 1 |];
          [| From_component 0; From_source 2; From_state 5 |];
          [| From_component 1 |];
          [| From_component 2 |];
          [| From_component 3 |];
          [| From_component 2; From_state 4; From_source 3 |];
        |]
  in
  let d0, c0, p0 = Model.initial_state cfg in
  let initial = [| d0; 0; c0; params.adapt_length - 1; params.max_f; p0 |] in
  let built = build_chain net ~initial in
  let states = built.states in
  {
    config = cfg;
    params;
    chain = built.chain;
    n_states = Array.length states;
    phase_bin = (fun i -> states.(i).(5));
    freq_value = (fun i -> states.(i).(4) - params.max_f);
    build_seconds = Unix.gettimeofday () -. start;
  }

let solve ?(tol = 1e-11) t =
  Markov.Splitting.solve ~method_:Markov.Splitting.Gauss_seidel ~tol t.chain

let phase_marginal t ~pi =
  Markov.Stat.marginal ~pi ~label:t.phase_bin ~n_labels:t.config.Config.grid_points

let freq_marginal t ~pi =
  let f = t.params.max_f in
  let marg = Markov.Stat.marginal ~pi ~label:(fun i -> t.freq_value i + f) ~n_labels:((2 * f) + 1) in
  Array.mapi (fun idx p -> (idx - f, p)) marg

let ber t ~pi = Ber.of_marginal t.config ~rho:(phase_marginal t ~pi)

let slip_rate t ~pi =
  Cycle_slip.flux t.config ~phase:t.phase_bin
    (Cdr_op.Csr_backend.create (Markov.Chain.tpm t.chain))
    ~pi
