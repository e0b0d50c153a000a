type point = { config : Config.t; report : Report.t }

(* A sweep point's solve is always serial (the point is the parallel unit)
   and owns its own warm-start state, so only the scalar knobs of the
   caller's context — tolerance, cancellation — flow into it. *)
let point_ctx ctx =
  { ctx with Context.pool = None; trace = None; init = None; cache = None }

let point ~ctx ~attr_name ~attr_value config solver =
  Cdr_obs.Span.with_ ~name:"sweep.point" ~attrs:[ (attr_name, attr_value) ] @@ fun () ->
  Cdr_obs.Metrics.incr "sweep.points";
  { config; report = Report.run ?solver ~ctx:(point_ctx ctx) config }

(* One Report.run per pool slot: the sweep point is the parallel unit, so the
   solver inside each point runs serially (handing the pool down as well
   would only contend with the point-level batch). Order is preserved and
   every point is a self-contained solve, so the point list is identical for
   any job count. *)
let map_points ?pool f values =
  match pool with
  | None -> List.map f values
  | Some pool -> Cdr_par.Pool.map_list pool f values

(* Split into at most [k] contiguous chunks over the same fixed grid the
   sparse kernels use, so the chunk boundaries depend on the job count only
   through [k]. *)
let chunk_list k l =
  let n = List.length l in
  if n = 0 then []
  else begin
    let k = max 1 (min k n) in
    let arr = Array.of_list l in
    List.init k (fun c ->
        let lo = c * n / k and hi = (((c + 1) * n / k) - 1) in
        Array.to_list (Array.sub arr lo (hi - lo + 1)))
  end

(* Secant predictor for the continuation: extrapolate the next stationary
   vector linearly from the last two along the sweep parameter. Negative
   extrapolated entries are clamped to zero (the solvers expect a density);
   the prediction only sets the starting point, never the convergence test. *)
let predict ~v ~v1 ~pi1 ~v2 ~pi2 =
  let n = Array.length pi1 in
  if Array.length pi2 <> n || v1 = v2 then pi1
  else begin
    let t = (v -. v1) /. (v1 -. v2) in
    Array.init n (fun i -> Float.max 0.0 (pi1.(i) +. (t *. (pi1.(i) -. pi2.(i)))))
  end

(* Continuation mode: points are processed in parameter order so that
   adjacent points — whose stationary densities nearly coincide — are
   neighbors in the schedule. Each worker takes one contiguous chunk and
   threads through it (a) the previous point's model, so [Model.rebuild] can
   renumber the cached sparsity pattern in place, (b) a secant extrapolation
   of the previous points' stationary vectors as the next solve's initial
   iterate, and (c) a structure-keyed [Solver_cache] of multigrid setups.
   Under a pool the chunks run in parallel and warm-starting happens within
   each worker's chunk; results return in the caller's original order. *)
let map_points_continuation ?solver ~ctx ~attr_name ~attr_of ~param_of ~config_of values =
  let pool = ctx.Context.pool in
  let indexed = List.mapi (fun i v -> (i, v)) values in
  let sorted = List.stable_sort (fun (_, a) (_, b) -> Stdlib.compare a b) indexed in
  let jobs = match pool with None -> 1 | Some p -> Cdr_par.Pool.jobs p in
  let run_chunk chunk =
    let cache = Some (Solver_cache.create ()) in
    let prev = ref None and prev2 = ref None in
    List.map
      (fun (idx, v) ->
        let config = Config.create_exn (config_of v) in
        Cdr_obs.Span.with_ ~name:"sweep.point" ~attrs:[ (attr_name, attr_of v) ] @@ fun () ->
        Cdr_obs.Metrics.incr "sweep.points";
        let model =
          match !prev with
          | Some (prev_model, _, _) -> fst (Model.rebuild prev_model config)
          | None -> Model.build config
        in
        let init =
          match (!prev, !prev2) with
          | Some (_, pi1, v1), Some (pi2, v2) -> Some (predict ~v:(param_of v) ~v1 ~pi1 ~v2 ~pi2)
          | Some (_, pi1, _), None -> Some pi1
          | None, _ -> None
        in
        (* the chunk owns its warm-start state: the per-point init and the
           per-chunk setup cache replace whatever the caller's context holds
           (a cache shared across chunks would race — setups own mutable
           workspaces) *)
        let pctx = { (point_ctx ctx) with Context.init; cache } in
        let report, solution = Report.run_model ?solver ~ctx:pctx (Report.Csr model) in
        (match !prev with Some (_, pi1, v1) -> prev2 := Some (pi1, v1) | None -> ());
        prev := Some (model, solution.Markov.Solution.pi, param_of v);
        (idx, { config; report }))
      chunk
  in
  let chunks = chunk_list jobs sorted in
  let chunk_results =
    match pool with
    | None -> List.map run_chunk chunks
    | Some pool -> Cdr_par.Pool.map_list pool run_chunk chunks
  in
  List.concat chunk_results
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
  |> List.map snd

(* One sweep over [values]: independent cold points, or the continuation
   under the warm strategy. *)
let sweep ?solver ~ctx ~attr_name ~attr_of ~param_of ~config_of values =
  if ctx.Context.strategy = Context.warm then
    map_points_continuation ?solver ~ctx ~attr_name ~attr_of ~param_of ~config_of values
  else
    map_points ?pool:ctx.Context.pool
      (fun v ->
        let config = Config.create_exn (config_of v) in
        point ~ctx ~attr_name ~attr_value:(attr_of v) config solver)
      values

let counter_lengths ?solver ?(ctx = Context.default) base lengths =
  sweep ?solver ~ctx ~attr_name:"counter" ~attr_of:string_of_int ~param_of:float_of_int
    ~config_of:(fun k -> { base with Config.counter_length = k })
    lengths

let sigma_w_values ?solver ?(ctx = Context.default) base sigmas =
  sweep ?solver ~ctx ~attr_name:"sigma_w" ~attr_of:string_of_float ~param_of:Fun.id
    ~config_of:(fun sigma -> { base with Config.sigma_w = sigma })
    sigmas

let optimal_of_points = function
  | [] -> invalid_arg "Sweep.optimal_of_points: no points"
  | first :: rest ->
      let best =
        List.fold_left
          (fun acc p -> if p.report.Report.ber < acc.report.Report.ber then p else acc)
          first rest
      in
      (best.config.Config.counter_length, best.report.Report.ber)

let optimal_counter ?solver ?ctx base lengths =
  match lengths with
  | [] -> invalid_arg "Sweep.optimal_counter: no candidate lengths"
  | _ -> optimal_of_points (counter_lengths ?solver ?ctx base lengths)

let pp_points ppf points =
  Format.fprintf ppf "@[<v>%-8s %-8s %-12s %-10s %-8s %s@,"
    "counter" "sigma_w" "BER" "size" "iter" "solve(s)";
  List.iter
    (fun { config; report } ->
      Format.fprintf ppf "%-8d %-8.3g %-12.3e %-10d %-8d %.2f@," config.Config.counter_length
        config.Config.sigma_w report.Report.ber report.Report.size report.Report.iterations
        report.Report.solve_seconds)
    points;
  Format.fprintf ppf "@]"
