type t = {
  config : Config.t;
  ber : float;
  size : int;
  iterations : int;
  matrix_form_seconds : float;
  solve_seconds : float;
  phase_density : Linalg.Vec.t;
  eye_density : (float * float) array;
  trace : Cdr_obs.Trace.t;
}

type model = Csr of Model.t | Kron of Kron_model.t

let build ctx cfg =
  match ctx.Context.backend with
  | `Csr -> Csr (Model.build ?pool:ctx.Context.pool cfg)
  | `Kron -> Kron (Kron_model.build cfg)

let operator = function Csr m -> Model.operator m | Kron k -> Kron_model.operator k

let mean_time_between_slips model ~pi =
  match model with
  | Csr m -> Cycle_slip.mean_time_between m ~pi
  | Kron k -> Kron_model.mean_time_between_slips k ~pi

let run_model ?(solver = `Multigrid) ?(ctx = Context.default) model =
  Cdr_obs.Span.with_ ~name:"report.run" @@ fun () ->
  let trace = Cdr_obs.Trace.create ~name:(Model.solver_name (solver :> Model.solver)) () in
  (* the report owns the convergence trace it returns, so it overrides any
     trace the caller's context carries *)
  let ctx = Context.override ~trace ctx in
  let config, size, matrix_form_seconds =
    match model with
    | Csr m -> (m.Model.config, m.Model.n_states, m.Model.build_seconds)
    | Kron k -> (k.Kron_model.config, k.Kron_model.n_states, k.Kron_model.build_seconds)
  in
  let (result, solution), solve_seconds =
    Cdr_obs.Span.timed ~name:"report.solve" (fun () ->
        let solution, rho =
          match model with
          | Csr m ->
              let s = Model.solve ~solver:(solver :> Model.solver) ~ctx m in
              (s, Model.phase_marginal m ~pi:s.Markov.Solution.pi)
          | Kron k ->
              let s = Kron_model.solve ~solver:(solver :> Kron_model.solver) ~ctx k in
              (s, Kron_model.phase_marginal k ~pi:s.Markov.Solution.pi)
        in
        (Ber.of_density config ~rho, solution))
  in
  (* every solver records its outer-iteration count in the trace; the
     Solution count is the fallback for an instantly-converged (empty) trace *)
  let iterations =
    match Cdr_obs.Trace.last_iter trace with
    | 0 -> solution.Markov.Solution.iterations
    | n -> n
  in
  Cdr_obs.Metrics.observe "report.solve_seconds" solve_seconds;
  ( {
      config;
      ber = result.Ber.ber;
      size;
      iterations;
      matrix_form_seconds;
      solve_seconds;
      phase_density = result.Ber.phase_density;
      eye_density = result.Ber.eye_density;
      trace;
    },
    solution )

let run ?solver ?(ctx = Context.default) cfg = fst (run_model ?solver ~ctx (build ctx cfg))

let header_line t =
  Printf.sprintf "COUNTER: %d  STDnw: %.1e  MAXnr: %.1e  BER: %.1e" t.config.Config.counter_length
    t.config.Config.sigma_w (Config.max_nr t.config) t.ber

let footer_line t =
  Printf.sprintf "Size: %d  Iter: %d  Matrixformtime: %.2f mins  Solvetime: %.2f mins" t.size
    t.iterations
    (t.matrix_form_seconds /. 60.0)
    (t.solve_seconds /. 60.0)

(* The eye density lives on a different (n_w) lattice than the phase grid;
   the tables index it by nearest phase. Both lattices are sorted and the
   leftmost-nearest index is non-decreasing in the phase, so one linear merge
   aligns every bin — not a per-row scan over the whole lattice. *)
let eye_by_bin t =
  let m = Array.length t.phase_density in
  let ne = Array.length t.eye_density in
  let out = Array.make m 0.0 in
  if ne > 0 then begin
    let j = ref 0 in
    for i = 0 to m - 1 do
      let phi = Config.phase_of_bin t.config i in
      while
        !j + 1 < ne
        && abs_float (fst t.eye_density.(!j + 1) -. phi)
           < abs_float (fst t.eye_density.(!j) -. phi)
      do
        incr j
      done;
      out.(i) <- snd t.eye_density.(!j)
    done
  end;
  out

let density_table ?(max_rows = 33) t =
  let m = Array.length t.phase_density in
  let stride = max 1 (m / max_rows) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "    phase     rho(Phi)      rho(Phi+n_w)\n";
  let eye = eye_by_bin t in
  let i = ref 0 in
  while !i < m do
    let phi = Config.phase_of_bin t.config !i in
    Buffer.add_string buf
      (Printf.sprintf "  %+8.4f  %12.5e  %12.5e\n" phi t.phase_density.(!i) eye.(!i));
    i := !i + stride
  done;
  Buffer.contents buf

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "phase,rho_phi,rho_phi_plus_nw\n";
  let eye = eye_by_bin t in
  Array.iteri
    (fun i p ->
      let phi = Config.phase_of_bin t.config i in
      Buffer.add_string buf (Printf.sprintf "%.9f,%.9e,%.9e\n" phi p eye.(i)))
    t.phase_density;
  Buffer.contents buf

let sketch density =
  let m = Array.length density in
  let width = 61 in
  let peak = Array.fold_left Float.max 0.0 density in
  if peak <= 0.0 then "(empty density)\n"
  else begin
    let heights = 12 in
    let buf = Buffer.create ((heights + 1) * (width + 1)) in
    let column c =
      (* max density over the bins mapping to this column *)
      let lo = c * m / width and hi = max (c * m / width) (((c + 1) * m / width) - 1) in
      let v = ref 0.0 in
      for i = lo to min hi (m - 1) do
        v := Float.max !v density.(i)
      done;
      !v
    in
    for row = heights downto 1 do
      let threshold = float_of_int row /. float_of_int heights *. peak in
      for c = 0 to width - 1 do
        Buffer.add_char buf (if column c >= threshold then '*' else ' ')
      done;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (String.make (width / 2) '-');
    Buffer.add_char buf '+';
    Buffer.add_string buf (String.make (width - (width / 2) - 1) '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf "-1/2                           0                           +1/2\n";
    Buffer.contents buf
  end

let pp ppf t =
  Format.fprintf ppf "%s@\n%s%s@\n" (header_line t) (sketch t.phase_density) (footer_line t)
