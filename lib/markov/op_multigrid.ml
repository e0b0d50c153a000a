(* Two-stage iterative aggregation/disaggregation (IAD, Takahashi-style)
   with a matrix-free fine level: together with {!Multigrid} on the coarse
   levels, one multilevel V-cycle whose top level is never materialized.

   {!Multigrid} wants the fine TPM as CSR: its setup transposes every level
   and colors sparsity graphs — exactly the materialization the Kronecker
   backend exists to avoid. Instead of teaching the V-cycle interior about
   operators, this module runs the classical outer IAD loop with the fine
   level represented only by its action and entry enumerator:

     smooth (normalized power sweeps on the operator)
     -> aggregate: A_c(I,J) = sum_{i in I} w_i * sum_{j in J} M(i,j),
        w the within-block normalization of the smoothed iterate
     -> one {!Multigrid.cycle} on the coarse chain over the remaining
        hierarchy, warm-started from the smoothed iterate's block masses
        (coarse levels are materialized CSR — at most half the fine
        dimension, and the only CSR this solver ever builds; the coarsest
        is solved exactly by GTH)
     -> disaggregate multiplicatively with the smoothed weights
     -> smooth, measure the fine residual, repeat.

   One coarse cycle, not a coarse solve to [tol]: the outer loop is itself
   the iteration, and the stopping test is the fine residual, so solving
   the coarse chain exactly every outer cycle bought no outer cycles (on the
   default grid, 39-41 outer cycles either way) at about seven times the
   coarse work.

   The aggregated pattern is a function of the operator's structure and the
   partition only, so the first cycle's [Csr.assemble] result is refilled in
   place on every later cycle and re-normalized in place: the coarse chain
   keeps physically shared structure arrays, [Multigrid.matches] stays
   O(1), and one coarse setup serves the whole solve.

   All of that state — iterate/weight/block-mass vectors, the coarse
   iterate, the assembled pattern, the refill buffer, the coarse Multigrid
   setup and its direct-solve scratch — lives in a reusable [setup]
   ([prepare] + [solve_with]), so an outer cycle allocates nothing on the
   major heap and a service answering repeated queries against one
   operator structure reallocates nothing per request but the answer. *)

type stats = {
  cycles : int;
  coarse_cycles : int;
  coarse_states : int;
  coarse_nnz : int;
  smoothing_sweeps : int;
}

let default_hierarchy ~n_coarse =
  Multigrid.default_hierarchy ~n:n_coarse ~coarsest:Gth.max_direct_size

(* Fixed slot grid over coarse rows for the aggregation value pass; rows
   write disjoint [values] segments and each entry accumulates in emission
   order, so pooled refills are bit-identical to serial ones. *)
let coarse_slots n_coarse = min 16 (max 1 (n_coarse / 64))

(* Everything a solve needs beyond the operator values: the partition and
   coarse hierarchy, preallocated iterate/weight vectors, and — once the
   first cycle has run — the aggregated pattern, its refill buffer and the
   coarse {!Multigrid.setup}. Owns mutable workspaces: one solve at a time. *)
type setup = {
  s_n : int;
  s_partition : Partition.t;
  s_hierarchy : Partition.t list;
  s_blocks : int list array;
  s_x : Linalg.Vec.t;
  s_y : Linalg.Vec.t;
  s_weights : Linalg.Vec.t;
  s_block_mass : Linalg.Vec.t;
  s_coarse_x : Linalg.Vec.t; (* the coarse iterate the coarse V-cycle updates *)
  mutable s_pattern : Sparse.Csr.t option;
  mutable s_values : Linalg.Vec.t; (* refill buffer, reused across cycles *)
  mutable s_coarse : (Multigrid.setup * Multigrid.scratch) option;
      (* the coarse chain's setup and its direct-solve scratch *)
}

let prepare ?coarse_hierarchy ~partition op =
  let n = Cdr_op.dim op in
  if partition.Partition.n_fine <> n then
    invalid_arg "Op_multigrid.prepare: partition does not match the operator dimension";
  let n_coarse = partition.Partition.n_coarse in
  let hierarchy =
    match coarse_hierarchy with Some h -> h | None -> default_hierarchy ~n_coarse
  in
  {
    s_n = n;
    s_partition = partition;
    s_hierarchy = hierarchy;
    s_blocks = Partition.blocks partition;
    s_x = Linalg.Vec.create n;
    s_y = Linalg.Vec.create n;
    s_weights = Linalg.Vec.create n;
    s_block_mass = Linalg.Vec.create n_coarse;
    s_coarse_x = Linalg.Vec.create n_coarse;
    s_pattern = None;
    s_values = [||];
    s_coarse = None;
  }

let matches s op = Cdr_op.dim op = s.s_n

let solve_with ?(tol = 1e-12) ?(max_cycles = 200) ?(pre_smooth = 2) ?(post_smooth = 2)
    ?(fuse = true) ?init ?trace ?pool ?cancel s op =
  if not (matches s op) then
    invalid_arg "Op_multigrid.solve_with: operator dimension does not match the setup";
  let n = s.s_n in
  let partition = s.s_partition in
  let n_coarse = partition.Partition.n_coarse in
  let map = partition.Partition.map in
  let blocks = s.s_blocks in
  (match init with
  | Some v -> Array.blit v 0 s.s_x 0 n
  | None -> Array.fill s.s_x 0 n (1.0 /. float_of_int n));
  Linalg.Vec.normalize_l1 s.s_x;
  let x = ref s.s_x in
  let y = ref s.s_y in
  let sweeps = ref 0 and cycles = ref 0 and coarse_cycles = ref 0 and coarse_nnz = ref 0 in
  let phase name f = Cdr_par.Pool.with_phase ~labels:[ ("solver", "iad") ] name f in
  (* [~applied] when [!y] already holds [!x * M]: the residual test of the
     previous outer cycle left it there, so the first pre-smoothing sweep
     reuses it instead of applying the operator again (same bits) *)
  let smooth ?(applied = false) count =
    phase "smooth" (fun () ->
        for sweep = 1 to count do
          if not (applied && sweep = 1) then Cdr_op.vec_mul_into ?pool op !x !y;
          Linalg.Vec.normalize_l1 !y;
          let tmp = !x in
          x := !y;
          y := tmp;
          incr sweeps
        done)
  in
  (* within-block normalized aggregation weights of the current iterate *)
  let weights = s.s_weights in
  let block_mass = s.s_block_mass in
  let compute_weights () =
    Array.fill block_mass 0 n_coarse 0.0;
    let xv = !x in
    for i = 0 to n - 1 do
      block_mass.(map.(i)) <- block_mass.(map.(i)) +. xv.(i)
    done;
    for bi = 0 to n_coarse - 1 do
      let mass = block_mass.(bi) in
      if mass > 0.0 && Float.is_finite mass then
        List.iter (fun i -> weights.(i) <- xv.(i) /. mass) blocks.(bi)
      else begin
        (* a block the iterate has not reached yet: aggregate uniformly so
           the coarse row stays stochastic *)
        let u = 1.0 /. float_of_int (Partition.block_size partition bi) in
        List.iter (fun i -> weights.(i) <- u) blocks.(bi)
      end
    done
  in
  let coarse_row bi emit =
    List.iter
      (fun i ->
        let w = weights.(i) in
        Cdr_op.iter_row op i (fun j v -> emit map.(j) (w *. v)))
      blocks.(bi)
  in
  (* the first cycle of the first solve assembles the pattern; every later
     cycle refills the hoisted value buffer in place — no per-cycle (or
     per-request) allocation *)
  let assemble () =
    let m0 = Sparse.Csr.assemble ?pool ~rows:n_coarse ~cols:n_coarse coarse_row in
    s.s_pattern <- Some m0;
    s.s_values <- Array.make (Sparse.Csr.nnz m0) 0.0;
    m0
  in
  let build_coarse () =
    compute_weights ();
    match s.s_pattern with
    | None -> assemble ()
    | Some m0 ->
        let values = s.s_values in
        Array.fill values 0 (Array.length values) 0.0;
        (* a setup carried over to an operator of the same dimension but a
           wider nonzero structure (the service transplants setups across
           noise parameters) meets coarse entries outside the pattern: flag
           them and assemble afresh instead of refilling *)
        let stale = Atomic.make false in
        let slots = coarse_slots n_coarse in
        Cdr_par.Pool.run_slots_opt pool ~slots (fun sl ->
            let lo = n_coarse * sl / slots and hi = (n_coarse * (sl + 1) / slots) - 1 in
            for bi = lo to hi do
              coarse_row bi (fun cj v ->
                  match Sparse.Csr.row_index m0 bi cj with
                  | -1 -> Atomic.set stale true
                  | k -> values.(k) <- values.(k) +. v)
            done);
        if Atomic.get stale then assemble () else Sparse.Csr.refill m0 values
  in
  (* one coarse V-cycle, warm-started from the block masses of the smoothed
     iterate, in the setup's own coarse iterate and direct-solve scratch *)
  let coarse_cycle () =
    let chain = Chain.of_csr_in_place (phase "aggregate" build_coarse) in
    let cs, scratch =
      match s.s_coarse with
      | Some (cs, scratch) when Multigrid.matches cs chain -> (cs, scratch)
      | _ ->
          let cs = Multigrid.setup ~hierarchy:s.s_hierarchy chain in
          let c = (cs, Multigrid.scratch cs) in
          s.s_coarse <- Some c;
          c
    in
    Array.blit block_mass 0 s.s_coarse_x 0 n_coarse;
    let before = Multigrid.scratch_cycles scratch in
    Multigrid.cycle ~fuse ?pool scratch cs chain s.s_coarse_x;
    coarse_cycles := !coarse_cycles + Multigrid.scratch_cycles scratch - before;
    coarse_nnz := Sparse.Csr.nnz (Chain.tpm chain)
  in
  (* multiplicative disaggregation with the weights of the iterate the
     coarse chain was aggregated from, whose block masses [compute_weights]
     left in [block_mass] *)
  let prolong () =
    Partition.prolong_into partition ~coarse:s.s_coarse_x ~block_weight:block_mass !x;
    Linalg.Vec.normalize_l1 !x
  in
  let residual_now () =
    phase "residual" (fun () ->
        Cdr_op.vec_mul_into ?pool op !x !y;
        Linalg.Vec.dist_l1 !y !x)
  in
  let continue_ = ref (n > 0) in
  let run_cycles () =
    while !continue_ && !cycles < max_cycles do
      (match cancel with
      | Some f when f () -> raise Multigrid.Cancelled
      | _ -> ());
      smooth ~applied:(!cycles > 0) pre_smooth;
      coarse_cycle ();
      phase "prolong" prolong;
      smooth post_smooth;
      incr cycles;
      let r = residual_now () in
      (match trace with
      | Some t -> Cdr_obs.Trace.record t ~iter:!cycles ~residual:r
      | None -> ());
      if r <= tol then continue_ := false
    done
  in
  (* one phase region for the whole outer loop: fine applies, aggregation
     refills and the coarse V-cycles all dispatch into one team *)
  if fuse then Cdr_par.Pool.run_phases pool run_cycles else run_cycles ();
  (* the solution owns its iterate; the setup's workspaces stay reusable,
     and the certificate's x * M lands in the spare iterate buffer *)
  let residual pi =
    Cdr_op.vec_mul_into op pi !y;
    Linalg.Vec.dist_l1 !y pi
  in
  let solution = Solution.make_residual ~residual ~pi:(Array.copy !x) ~iterations:!cycles ~tol in
  ( solution,
    {
      cycles = !cycles;
      coarse_cycles = !coarse_cycles;
      coarse_states = n_coarse;
      coarse_nnz = !coarse_nnz;
      smoothing_sweeps = !sweeps;
    } )

let solve ?tol ?max_cycles ?pre_smooth ?post_smooth ?fuse ?init ?trace ?pool ?cancel
    ?coarse_hierarchy ~partition op =
  solve_with ?tol ?max_cycles ?pre_smooth ?post_smooth ?fuse ?init ?trace ?pool ?cancel
    (prepare ?coarse_hierarchy ~partition op)
    op
