type solver = Cdr.Model.solver

type t = {
  grid : int;
  phases : int;
  counter : int;
  sigma_w : float;
  drift_mean : float;
  drift_max : int;
  max_run : int;
  p01 : float;
  p10 : float;
  solver : solver;
  smoother : [ `Lex ]; (* stays only for the frozen perfbench replay *)
  backend : Cdr_op.kind;
  env : Cdr_env.Env.t option;
}

(* the grid/phases/counter/sigma/max_run defaults are Config.default's (the
   paper's running example); drift and transition probabilities match what
   the cdr_analyze flags have always defaulted to *)
let default =
  {
    grid = Cdr.Config.default.Cdr.Config.grid_points;
    phases = Cdr.Config.default.Cdr.Config.n_phases;
    counter = Cdr.Config.default.Cdr.Config.counter_length;
    sigma_w = Cdr.Config.default.Cdr.Config.sigma_w;
    drift_mean = 0.1;
    drift_max = 2;
    max_run = Cdr.Config.default.Cdr.Config.max_run;
    p01 = 0.5;
    p10 = 0.5;
    solver = `Multigrid;
    smoother = `Lex;
    backend = `Csr;
    env = None;
  }

let to_config p =
  let cfg =
    {
      Cdr.Config.default with
      Cdr.Config.grid_points = p.grid;
      n_phases = p.phases;
      counter_length = p.counter;
      sigma_w = p.sigma_w;
      nr = Prob.Jitter.drift ~max_steps:p.drift_max ~mean_steps:p.drift_mean ();
      max_run = p.max_run;
      p01 = p.p01;
      p10 = p.p10;
    }
  in
  match (p.backend, p.solver) with
  | `Kron, `Gauss_seidel -> Error "solver \"gauss-seidel\" has no matrix-free path; use backend=csr"
  | _ -> ( match Cdr.Config.validate cfg with Ok () -> Ok cfg | Error msg -> Error msg)

(* A preset's parameter record: the config-derived fields come from the
   scenario (the drift scalars are carried by {!Cdr.Scenario.t} exactly so
   this rebuilds the identical pmf); solver machinery stays at the schema
   defaults. *)
let of_scenario (s : Cdr.Scenario.t) =
  let c = s.Cdr.Scenario.config in
  {
    default with
    grid = c.Cdr.Config.grid_points;
    phases = c.Cdr.Config.n_phases;
    counter = c.Cdr.Config.counter_length;
    sigma_w = c.Cdr.Config.sigma_w;
    drift_mean = s.Cdr.Scenario.drift_mean;
    drift_max = s.Cdr.Scenario.drift_max;
    max_run = c.Cdr.Config.max_run;
    p01 = c.Cdr.Config.p01;
    p10 = c.Cdr.Config.p10;
  }

let solver_of_string = function
  | "multigrid" -> Some `Multigrid
  | "power" -> Some `Power
  | "gauss-seidel" -> Some `Gauss_seidel
  | _ -> None

let string_of_solver = function
  | `Multigrid -> "multigrid"
  | `Power -> "power"
  | `Gauss_seidel -> "gauss-seidel"

let backend_of_string = Cdr_op.kind_of_string

let string_of_backend = Cdr_op.kind_string

(* ---------- JSON codec ----------

   Two accepted wire shapes:

   - version 2 (canonical, what {!to_json} emits): noise fields nested
     under ["noise"], loop geometry under ["loop"], an optional ["env"]
     environment spec, [p01]/[p10] split;
   - version 1 (the original flat record), still accepted field for field —
     including ["p_transition"], the collapsed alias setting both
     transition densities — but counted in the ["serve.deprecated_params"]
     metric and warned about once per process.

   Both shapes may carry ["scenario"]: it seeds the decoding defaults from
   the named {!Cdr.Scenario} preset BEFORE any explicit field applies,
   whatever its position in the object. Because decoding normalizes every
   spelling into the same record and {!to_json} re-encodes canonically,
   equivalent v1/v2/scenario-seeded requests produce identical
   [Protocol.cache_key]s and share result-cache entries. *)

let int_field name v =
  match v with
  | Cdr_obs.Jsonl.Num f when Float.is_integer f && Float.abs f < 1e9 -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "field %S must be an integer" name)

let float_field name v =
  match v with
  | Cdr_obs.Jsonl.Num f -> Ok f
  | _ -> Error (Printf.sprintf "field %S must be a number" name)

let enum_field name of_string v =
  match v with
  | Cdr_obs.Jsonl.Str s -> (
      match of_string s with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S: unknown value %S" name s))
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let deprecation_warned = ref false

let note_deprecated field =
  Cdr_obs.Metrics.incr "serve.deprecated_params";
  if not !deprecation_warned then begin
    deprecation_warned := true;
    Printf.eprintf
      "cdr_svc: params field %S uses the deprecated flat v1 schema; migrate to \
       {\"version\":2,\"noise\":{...},\"loop\":{...}} (v1 keeps working, this warning prints \
       once)\n\
       %!"
      field
  end

let ( let* ) = Result.bind

(* fields meaningful in both schema versions, at the top level *)
let common_field p key v =
  match key with
  | "grid" ->
      let* x = int_field key v in
      Ok (Some { p with grid = x })
  | "max_run" ->
      let* x = int_field key v in
      Ok (Some { p with max_run = x })
  | "p01" ->
      let* x = float_field key v in
      Ok (Some { p with p01 = x })
  | "p10" ->
      let* x = float_field key v in
      Ok (Some { p with p10 = x })
  | "solver" ->
      let* x = enum_field key solver_of_string v in
      Ok (Some { p with solver = x })
  | "smoother" -> (
      match v with
      | Cdr_obs.Jsonl.Str "lex" -> Ok (Some p)
      | _ -> Error "field \"smoother\" must be \"lex\", the only smoother")
  | "backend" ->
      let* x = enum_field key backend_of_string v in
      Ok (Some { p with backend = x })
  | "p_transition" ->
      (* the historical collapsed alias: one density for both directions *)
      let* x = float_field key v in
      Ok (Some { p with p01 = x; p10 = x })
  | _ -> Ok None

let v1_field p key v =
  match key with
  | "phases" ->
      let* x = int_field key v in
      Ok (Some { p with phases = x })
  | "counter" ->
      let* x = int_field key v in
      Ok (Some { p with counter = x })
  | "sigma_w" ->
      let* x = float_field key v in
      Ok (Some { p with sigma_w = x })
  | "drift_mean" ->
      let* x = float_field key v in
      Ok (Some { p with drift_mean = x })
  | "drift_max" ->
      let* x = int_field key v in
      Ok (Some { p with drift_max = x })
  | _ -> Ok None

let nested_obj name v =
  match v with
  | Cdr_obs.Jsonl.Obj fields -> Ok fields
  | _ -> Error (Printf.sprintf "field %S must be an object" name)

let fold_fields init fields f = List.fold_left (fun acc (k, v) -> Result.bind acc (fun p -> f p k v)) (Ok init) fields

let noise_of_json p v =
  let* fields = nested_obj "noise" v in
  fold_fields p fields (fun p key v ->
      match key with
      | "sigma_w" ->
          let* x = float_field "noise.sigma_w" v in
          Ok { p with sigma_w = x }
      | "drift_mean" ->
          let* x = float_field "noise.drift_mean" v in
          Ok { p with drift_mean = x }
      | "drift_max" ->
          let* x = int_field "noise.drift_max" v in
          Ok { p with drift_max = x }
      | other -> Error (Printf.sprintf "unknown noise field %S" other))

let loop_of_json p v =
  let* fields = nested_obj "loop" v in
  fold_fields p fields (fun p key v ->
      match key with
      | "phases" ->
          let* x = int_field "loop.phases" v in
          Ok { p with phases = x }
      | "counter" ->
          let* x = int_field "loop.counter" v in
          Ok { p with counter = x }
      | other -> Error (Printf.sprintf "unknown loop field %S" other))

let of_json ?(defaults = default) json =
  match json with
  | Cdr_obs.Jsonl.Null -> Ok defaults
  | Cdr_obs.Jsonl.Obj fields ->
      let* version =
        match List.assoc_opt "version" fields with
        | None -> Ok 1
        | Some v -> (
            let* x = int_field "version" v in
            match x with
            | 1 | 2 -> Ok x
            | other -> Error (Printf.sprintf "unsupported params schema version %d" other))
      in
      (* the scenario seeds the config-derived defaults first, wherever the
         field sits in the object; solver machinery and env stay from the
         caller's defaults so a scenario never changes how a request runs *)
      let* seeded =
        match List.assoc_opt "scenario" fields with
        | None -> Ok defaults
        | Some (Cdr_obs.Jsonl.Str name) -> (
            match Cdr.Scenario.find name with
            | Some s ->
                let p = of_scenario s in
                Ok
                  {
                    p with
                    solver = defaults.solver;
                    backend = defaults.backend;
                    env = defaults.env;
                  }
            | None -> Error (Printf.sprintf "unknown scenario %S" name))
        | Some _ -> Error "field \"scenario\" must be a string (a scenario name)"
      in
      let deprecated = ref None in
      let* parsed =
        fold_fields seeded fields (fun p key v ->
            match key with
            | "version" | "scenario" -> Ok p
            | _ -> (
                let* common = common_field p key v in
                match common with
                | Some p ->
                    if key = "p_transition" && !deprecated = None then deprecated := Some key;
                    Ok p
                | None ->
                    if version = 1 then
                      let* flat = v1_field p key v in
                      match flat with
                      | Some p ->
                          if !deprecated = None then deprecated := Some key;
                          Ok p
                      | None -> (
                          match key with
                          | "noise" | "loop" | "env" ->
                              Error
                                (Printf.sprintf
                                   "field %S requires schema version 2 (add \"version\": 2)" key)
                          | other -> Error (Printf.sprintf "unknown parameter field %S" other))
                    else
                      match key with
                      | "noise" -> noise_of_json p v
                      | "loop" -> loop_of_json p v
                      | "env" -> (
                          match Cdr_env.Env.of_json v with
                          | Ok e -> Ok { p with env = Some e }
                          | Error msg -> Error msg)
                      | "phases" | "counter" | "sigma_w" | "drift_mean" | "drift_max" ->
                          Error
                            (Printf.sprintf
                               "field %S is nested in schema version 2 (under \"noise\" or \
                                \"loop\")"
                               key)
                      | other -> Error (Printf.sprintf "unknown parameter field %S" other)))
      in
      (match !deprecated with Some field -> note_deprecated field | None -> ());
      Ok parsed
  | _ -> Error "\"params\" must be a JSON object"

(* canonical v2 encoding: fixed field order, [env] omitted when absent.
   {!of_json} round-trips this exactly, so the router's re-encode and the
   result-cache key normalize every accepted spelling to these bytes. *)
let to_json p =
  Cdr_obs.Jsonl.Obj
    ([
       ("version", Cdr_obs.Jsonl.Num 2.0);
       ("grid", Num (float_of_int p.grid));
       ("max_run", Num (float_of_int p.max_run));
       ( "noise",
         Obj
           [
             ("sigma_w", Num p.sigma_w);
             ("drift_mean", Num p.drift_mean);
             ("drift_max", Num (float_of_int p.drift_max));
           ] );
       ( "loop",
         Obj [ ("phases", Num (float_of_int p.phases)); ("counter", Num (float_of_int p.counter)) ]
       );
       ("p01", Num p.p01);
       ("p10", Num p.p10);
       ("solver", Str (string_of_solver p.solver));
       (* the one smoother, kept on the wire so no cache key moves *)
       ("smoother", Str "lex");
       ("backend", Str (string_of_backend p.backend));
     ]
    @ match p.env with None -> [] | Some e -> [ ("env", Cdr_env.Env.to_json e) ])

let model_key p =
  let base =
    Printf.sprintf "g%d.ph%d.k%d.dr%d.run%d" p.grid p.phases p.counter p.drift_max p.max_run
  in
  match p.env with None -> base | Some e -> base ^ "." ^ Cdr_env.Env.key e

let structure_key p =
  Printf.sprintf "%s.%s.lex.%s" (model_key p) (string_of_solver p.solver)
    (string_of_backend p.backend)
