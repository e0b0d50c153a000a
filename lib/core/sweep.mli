(** Parameter sweeps over the CDR design space — the experiments of the
    paper's Figures 4 and 5 and the "evaluation of a number of alternative
    ... architectures ... in a short time" motivation.

    Each sweep point is an independent stationary solve, so the sweeps are
    embarrassingly parallel: a context carrying a [Cdr_par.Pool.t] runs one
    {!Report.run} per pool worker. The point list is order-preserving and bit-identical for
    any job count (apart from the wall-clock timing fields, which measure the
    run they came from).

    Adjacent points are also nearly the same problem: their chains share one
    sparsity structure (sigma sweeps) or a tiny set of structures (counter
    sweeps), and their stationary densities nearly coincide. The
    {!Context.warm} strategy exploits both — a continuation: points are processed in
    parameter order, each worker's chunk reuses the previous point's state
    enumeration and CSR pattern ({!Model.rebuild}), caches multigrid setups
    per structure ({!Solver_cache}), and starts each solve from a secant
    extrapolation of the previous points' stationary vectors. Results agree
    with the cold path within the solver tolerance (the convergence test is
    unchanged; only the starting point and the symbolic setup are reused). *)

type point = { config : Config.t; report : Report.t }

val counter_lengths :
  ?solver:Model.solver ->
  ?ctx:Context.t ->
  Config.t ->
  int list ->
  point list
(** BER for each counter length, all other parameters fixed (Figure 5).

    [?ctx] supplies the pool, strategy, tolerance and cancellation
    hook. A context's [init], [cache] and [trace] do {e not} flow into the
    points: every point owns its warm-start state (the continuation computes
    per-point inits and one setup cache per worker chunk) and its own
    convergence trace. *)

val sigma_w_values :
  ?solver:Model.solver ->
  ?ctx:Context.t ->
  Config.t ->
  float list ->
  point list
(** BER for each eye-opening jitter level (Figure 4's two panels as the
    endpoints of a continuum). With {!Context.warm} this is the headline fast path:
    every point shares the sigma-independent state space, so rebuilds reuse
    the pattern and the multigrid setup cache hits on all but the first
    point of each structure group. *)

val optimal_of_points : point list -> int * float
(** The counter length and BER of the lowest-BER point in an already
    computed sweep — share one point list between the table and the optimum
    instead of re-running every solve. Raises [Invalid_argument] on []. *)

val optimal_counter :
  ?solver:Model.solver ->
  ?ctx:Context.t ->
  Config.t ->
  int list ->
  int * float
(** [optimal_of_points] of a fresh {!counter_lengths} sweep (the design
    answer the paper derives: an interior optimum where both noise sources
    contribute). *)

val pp_points : Format.formatter -> point list -> unit
(** One table row per point: the swept value, BER, state count, iterations. *)
