(** One bundle for everything a stationary analysis threads through its
    solver stack.

    A [Context.t] carries the pool, trace, setup cache, warm-start vector,
    sweep strategy, tolerance, cancellation hook and backend as
    one value: build it once with {!make}, hand it to any entry point
    ({!Model.solve}, {!Ber.analyze}, {!Report.run_model}, the {!Sweep}
    runners, the composed-chain solves) with [?ctx], and the layers below
    forward it unchanged. It is the only way to pass these knobs: the entry
    points take nothing but [?solver] and [?ctx], and a call that passes
    neither gets {!default}.

    The long-running analysis service is the motivating consumer: it builds
    one context per request (process-wide cache, shared pool, per-request
    deadline hook). *)

type strategy = {
  warm_start : bool;
      (** sweeps: start each solve from a secant extrapolation of the
          previous points' stationary vectors *)
  reuse_setup : bool;
      (** sweeps: rebuild models in place and cache multigrid setups per
          structure *)
}
(** Sweep continuation strategy, read by the {!Sweep} runners. *)

val cold : strategy
(** Independent cold solves — the historical default. *)

val warm : strategy
(** Warm-started, structure-cached continuation (both fields true). *)

type t = {
  pool : Cdr_par.Pool.t option;  (** domain pool for the parallel kernels *)
  trace : Cdr_obs.Trace.t option;  (** solver convergence recorder *)
  cache : Solver_cache.t option;  (** structure-keyed multigrid setup cache *)
  init : Linalg.Vec.t option;  (** warm-start iterate *)
  smoother : [ `Lex ];  (** stays only because the perfbench replay passes it *)
  strategy : strategy;  (** sweep continuation mode, {!cold} *)
  tol : float;  (** solver convergence tolerance, [1e-12] *)
  cancel : (unit -> bool) option;
      (** cooperative-cancellation hook, polled between multigrid V-cycles
          (see {!Markov.Multigrid.solve_with}); [true] aborts the solve with
          {!Markov.Multigrid.Cancelled}. The serving layer points this at a
          deadline check. Only the multigrid solver polls it — the other
          solvers complete normally. *)
  backend : Cdr_op.kind;
      (** operator representation, [`Csr]. Read only by the two
          config-taking reports, {!Report.run} (through {!Report.build})
          and [Cdr_env.Report.run], which build their chain on this
          backend. Every other entry point takes an already built model, so
          the model's own representation decides, and the field is ignored. *)
}

val default : t
(** No pool, no trace, no cache, no warm start, {!cold} strategy,
    tolerance [1e-12], no cancellation, [`Csr] backend. *)

val make :
  ?pool:Cdr_par.Pool.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?cache:Solver_cache.t ->
  ?init:Linalg.Vec.t ->
  ?smoother:[ `Lex ] ->
  ?strategy:strategy ->
  ?tol:float ->
  ?cancel:(unit -> bool) ->
  ?backend:Cdr_op.kind ->
  unit ->
  t
(** {!default} with the given fields replaced. [?smoother] (here and in
    {!override}) stays only because the perfbench replay passes it. *)

val override :
  ?pool:Cdr_par.Pool.t ->
  ?trace:Cdr_obs.Trace.t ->
  ?cache:Solver_cache.t ->
  ?init:Linalg.Vec.t ->
  ?smoother:[ `Lex ] ->
  ?strategy:strategy ->
  ?tol:float ->
  ?cancel:(unit -> bool) ->
  ?backend:Cdr_op.kind ->
  t ->
  t
(** [t] with every {e explicitly passed} argument replacing the matching
    field, e.g. [override ~strategy:warm ctx] for a sweep that keeps the
    caller's pool and cancellation hook. An argument that is not passed
    leaves the field alone (there is no way to {e clear} a field through
    [override]; build a fresh context for that). *)

val init_for : t -> int -> Linalg.Vec.t option
(** [init_for t n] is [t.init] when it has length [n], else [None]: a
    warm-start vector of the wrong length (e.g. threaded across a counter
    sweep whose state count moved) is dropped, never an error. *)
