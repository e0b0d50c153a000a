type strategy = { warm_start : bool; reuse_setup : bool }

let cold = { warm_start = false; reuse_setup = false }
let warm = { warm_start = true; reuse_setup = true }

type t = {
  pool : Cdr_par.Pool.t option;
  trace : Cdr_obs.Trace.t option;
  cache : Solver_cache.t option;
  init : Linalg.Vec.t option;
  smoother : [ `Lex ]; (* stays only for the frozen perfbench replay *)
  strategy : strategy;
  tol : float;
  cancel : (unit -> bool) option;
  backend : Cdr_op.kind;
}

(* changing any of these literals changes the behavior of every call site
   that passes no context *)
let default =
  {
    pool = None;
    trace = None;
    cache = None;
    init = None;
    smoother = `Lex;
    strategy = cold;
    tol = 1e-12;
    cancel = None;
    backend = `Csr;
  }

let make ?pool ?trace ?cache ?init ?(smoother = `Lex) ?(strategy = cold) ?(tol = 1e-12) ?cancel
    ?(backend = `Csr) () =
  { pool; trace; cache; init; smoother; strategy; tol; cancel; backend }

let override ?pool ?trace ?cache ?init ?smoother ?strategy ?tol ?cancel ?backend t =
  let keep opt field = match opt with Some _ -> opt | None -> field in
  {
    pool = keep pool t.pool;
    trace = keep trace t.trace;
    cache = keep cache t.cache;
    init = keep init t.init;
    smoother = Option.value smoother ~default:t.smoother;
    strategy = Option.value strategy ~default:t.strategy;
    tol = Option.value tol ~default:t.tol;
    cancel = keep cancel t.cancel;
    backend = Option.value backend ~default:t.backend;
  }

let init_for t n = match t.init with Some v when Array.length v = n -> Some v | _ -> None
