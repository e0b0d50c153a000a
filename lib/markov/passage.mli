(** First-passage computations: mean transition times between sets of
    Markov-chain states (a linear system with the modified TPM), absorption
    probabilities, and the stationary flux through marked transitions that
    every slip rate is computed from. *)

exception Not_converged of { sweeps : int; delta : float }
(** Raised by {!mean_hitting_times} when [max_iter] sweeps pass without
    meeting its stopping rule; [delta] is the last sweep's largest change. *)

val mean_hitting_times :
  ?tol:float -> ?max_iter:int -> Chain.t -> target:(int -> bool) -> Linalg.Vec.t
(** [mean_hitting_times c ~target] returns [m] with [m.(i)] the expected
    number of steps to first reach the target set starting from [i]
    ([0.] on target states, [infinity] where the target is unreachable).
    Solved by Gauss-Seidel on [(I - Q) m = 1] over the complement of the
    target. Plain sweeps converge at the event rate — hopeless for rare
    events — so the solver also forms out-of-place Aitken extrapolates of
    the geometrically decaying iterates and stops when successive
    extrapolation windows agree to [tol] (relative, default [1e-6]; rare-
    event accuracy is limited by the dominance-ratio estimate, so demanding
    much tighter tolerances mostly costs sweeps). Raises {!Not_converged}
    after [max_iter] sweeps (default [500_000]) rather than return an
    unconverged iterate, and [Invalid_argument] when the target is empty.

    Scope: use this for events that are not rare and when the hitting time
    from {e every} start state is wanted — [Cdr.Acquisition], whose lock
    events take about a hundred bits, is the caller it is kept for, Aitken
    acceleration included. For a rare event seen from one start state, the
    renewal identity turns the hitting time into one stationary solve of a
    restarted chain ([Cdr.Cycle_slip.first_slip]); this iteration needs on
    the order of the event's mean time in sweeps there, and its
    extrapolation was seen to stop early and low by orders of magnitude. *)

val absorption_probabilities :
  ?tol:float -> ?max_iter:int -> Chain.t -> a:(int -> bool) -> b:(int -> bool) -> Linalg.Vec.t
(** Probability of hitting set [a] before set [b], per start state. The two
    sets must be disjoint and non-empty. *)

val flux : Cdr_op.t -> pi:Linalg.Vec.t -> crossing:(int -> int -> bool) -> float
(** Stationary probability flux through the marked transitions:
    [sum pi_i P_ij] over pairs with [crossing i j], accumulated in
    {!Cdr_op.iter_entries} order — so one functional serves the
    materialized and the matrix-free representations. Events per step; its
    inverse is a mean time between events. *)
