(** Finite discrete-time Markov chains.

    A chain is its row-stochastic transition probability matrix (TPM) [P]:
    [P.(i).(j) = Prob(X_{k+1} = j | X_k = i)]. Construction validates
    stochasticity; a private row re-normalization absorbs the rounding dust
    that compositional construction inevitably produces. *)

type t = private { tpm : Sparse.Csr.t }

exception Not_stochastic of string

val of_csr : ?tol:float -> Sparse.Csr.t -> t
(** Checks squareness, non-negative entries and row sums within [tol]
    (default [1e-9]) of one, then re-normalizes each row exactly.
    Raises {!Not_stochastic} otherwise. *)

val of_csr_in_place : ?tol:float -> Sparse.Csr.t -> t
(** {!of_csr} without the copy: the re-normalization rescales the matrix's
    own value array, which the chain then shares. For callers that own the
    matrix and rebuild a chain from refilled values every iteration. When
    it raises, the values may be partly rescaled. *)

val of_dense : ?tol:float -> Linalg.Mat.t -> t

val n_states : t -> int

val tpm : t -> Sparse.Csr.t

val step : ?pool:Cdr_par.Pool.t -> t -> Linalg.Vec.t -> Linalg.Vec.t
(** [step c pi] is the distribution after one transition, [pi * P]. [?pool]
    parallelizes the underlying {!Sparse.Csr.vec_mul} (deterministically:
    same bits for any job count). *)

val step_into : ?pool:Cdr_par.Pool.t -> t -> Linalg.Vec.t -> Linalg.Vec.t -> unit

val residual : ?pool:Cdr_par.Pool.t -> ?scratch:Linalg.Vec.t -> t -> Linalg.Vec.t -> float
(** [residual c pi = ||pi P - pi||_1], the stationarity defect. [?scratch]
    (length [n_states]) receives [pi P] instead of a fresh vector, so an
    iterative solver testing convergence every cycle allocates it once. *)

val uniform : t -> Linalg.Vec.t

val transition_prob : t -> int -> int -> float

val is_irreducible : t -> bool
(** True when the directed graph of positive transitions is strongly
    connected (forward and backward reachability from state 0 cover all
    states). *)
