(** State-space partitions (lumping maps) for aggregation and multigrid.

    A partition of [n] fine states into [m] blocks is stored as a surjective
    map [fine -> block], with the size of every block. *)

type t = private { map : int array; n_fine : int; n_coarse : int; sizes : int array }

val create : int array -> t
(** [create map] validates that block labels are exactly [0 .. max]
    (surjective, non-negative). Raises [Invalid_argument] otherwise. *)

val pair_consecutive : int -> t
(** [pair_consecutive n] lumps states [2k] and [2k+1] (the last state stays
    alone when [n] is odd) — the generic version of the paper's "lump the two
    states corresponding to consecutive discretized phase error values". *)

val block_size : t -> int -> int

val blocks : t -> int list array
(** Members of each block, ascending. *)

val color : n:int -> (int -> (int -> unit) -> unit) -> t
(** [color ~n neighbors] greedily colors the [n]-vertex graph whose
    adjacency is enumerated by [neighbors i f] (calling [f j] per neighbor;
    self-loops are ignored) and returns the coloring as a partition whose
    blocks are the color classes: vertices sharing a block are pairwise
    non-adjacent. Vertices are colored in index order with the smallest
    available color, so the result is deterministic and the block labels are
    contiguous from 0. The multicolor Gauss–Seidel smoother
    ({!Multigrid.setup} with [`Colored]) colors each level's symmetrized
    sparsity graph this way, once, symbolically. Raises [Invalid_argument]
    on an out-of-range neighbor. *)

val prolong_into : t -> coarse:Linalg.Vec.t -> block_weight:Linalg.Vec.t -> Linalg.Vec.t -> unit
(** Multiplicative disaggregation in place: [x] holds the weights on entry
    and [block_weight] their per-block sums; each [x.(i)] becomes
    [coarse.(b) * x.(i) / block_weight.(b)] for its block [b], so each
    block's coarse mass is spread over its members in proportion to their
    weights — or uniformly, [coarse.(b) / size b], when [block_weight.(b)]
    is not positive. Allocates nothing. *)
