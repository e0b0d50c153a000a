(* Two-stage iterative aggregation/disaggregation (IAD, Takahashi-style)
   with a matrix-free fine level: together with {!Multigrid} on the coarse
   levels, one multilevel V-cycle whose top level is never materialized.

   {!Multigrid} wants the fine TPM as CSR: its setup transposes every level
   and aggregates its sparsity pattern — exactly the materialization the Kronecker
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

   Each solve enumerates the operator's rows once into an entry table:
   every emitted entry, in emission order, as its coarse value slot (int32)
   and value (float64), 12 B, off the OCaml heap. Each outer cycle's refill
   is then one flat loop, [values.(slot) += w_i * v]. The coarse pattern is
   assembled only when the setup has none or the operator emits an entry
   outside it, so [Multigrid.matches] stays O(1) and one coarse setup
   serves the whole solve.

   All of that state — iterate/weight/block-mass vectors, the coarse
   iterate, the entry table, the assembled pattern, the coarse Multigrid
   setup and its direct-solve scratch — lives in a reusable [setup]
   ([prepare] + [solve_with]), so an outer cycle allocates nothing that
   grows with the operator, and a service answering repeated queries
   against one operator structure reallocates nothing but the answer. *)

type stats = {
  cycles : int;
  coarse_cycles : int;
  coarse_states : int;
  coarse_nnz : int;
  smoothing_sweeps : int;
  row_passes : int;
  table_bytes : int;
}

let default_hierarchy ~n_coarse =
  Multigrid.default_hierarchy ~n:n_coarse ~coarsest:Gth.max_direct_size

(* Fixed slot grid over coarse rows for the aggregation value pass; rows
   write disjoint [values] segments and each entry accumulates in emission
   order, so pooled refills are bit-identical to serial ones. *)
let coarse_slots n_coarse = min 16 (max 1 (n_coarse / 64))

type ints = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Everything a solve needs beyond the operator values: the partition and
   coarse hierarchy, preallocated iterate/weight vectors, the entry table,
   and — once the first solve has run — the aggregated pattern and the
   coarse {!Multigrid.setup}. Owns mutable workspaces: one
   solve at a time. *)
type setup = {
  s_n : int;
  s_partition : Partition.t;
  s_hierarchy : Partition.t list;
  s_bw_ptr : int array; (* block b owns s_bw_states.(s_bw_ptr.(b) .. s_bw_ptr.(b+1) - 1) *)
  s_bw_states : int array;
  s_x : Linalg.Vec.t;
  s_y : Linalg.Vec.t;
  s_weights : Linalg.Vec.t;
  s_block_mass : Linalg.Vec.t;
  s_coarse_x : Linalg.Vec.t; (* the coarse iterate the coarse V-cycle updates *)
  s_entry_ptr : int array; (* row s_bw_states.(p)'s entries start at s_entry_ptr.(p) *)
  mutable s_slots : ints; (* table: each entry's coarse value slot *)
  mutable s_entries : floats; (* table: each entry's value *)
  s_owner : int array; (* per coarse column: the coarse row that marked it *)
  s_pos : int array; (* per coarse column: its slot in the marking row *)
  mutable s_pattern : Sparse.Csr.t option; (* its values: the refill buffer *)
  mutable s_coarse : (Multigrid.setup * Multigrid.scratch) option;
      (* the coarse chain's setup and its direct-solve scratch *)
}

let table kind len = Bigarray.Array1.create kind Bigarray.C_layout len

let prepare ?coarse_hierarchy ~partition op =
  let n = Cdr_op.dim op in
  if partition.Partition.n_fine <> n then
    invalid_arg "Op_multigrid.prepare: partition does not match the operator dimension";
  let n_coarse = partition.Partition.n_coarse in
  let hierarchy =
    match coarse_hierarchy with Some h -> h | None -> default_hierarchy ~n_coarse
  in
  let bw_ptr, bw_states = Partition.members partition in
  {
    s_n = n;
    s_partition = partition;
    s_hierarchy = hierarchy;
    s_bw_ptr = bw_ptr;
    s_bw_states = bw_states;
    s_x = Linalg.Vec.create n;
    s_y = Linalg.Vec.create n;
    s_weights = Linalg.Vec.create n;
    s_block_mass = Linalg.Vec.create n_coarse;
    s_coarse_x = Linalg.Vec.create n_coarse;
    s_entry_ptr = Array.make (n + 1) 0;
    s_slots = table Bigarray.Int32 0;
    s_entries = table Bigarray.Float64 0;
    s_owner = Array.make n_coarse (-1);
    s_pos = Array.make n_coarse 0;
    s_pattern = None;
    s_coarse = None;
  }

let table_bytes s = 12 * Bigarray.Array1.dim s.s_entries

(* Room for [need] table entries, keeping the filled prefix. *)
let reserve s need =
  let old = Bigarray.Array1.dim s.s_entries in
  if need > old then begin
    let slots = table Bigarray.Int32 need and entries = table Bigarray.Float64 need in
    Bigarray.Array1.blit s.s_slots (Bigarray.Array1.sub slots 0 old);
    Bigarray.Array1.blit s.s_entries (Bigarray.Array1.sub entries 0 old);
    s.s_slots <- slots;
    s.s_entries <- entries
  end

(* Every table entry's coarse column becomes its slot in the coarse
   pattern: the setup's, when it holds every entry, else one assembled from
   the table, which also becomes the setup's. *)
let bind_slots s =
  let n_coarse = s.s_partition.Partition.n_coarse and table : ints = s.s_slots in
  let owner = s.s_owner and pos = s.s_pos in
  let iter_row b f =
    for e = s.s_entry_ptr.(s.s_bw_ptr.(b)) to s.s_entry_ptr.(s.s_bw_ptr.(b + 1)) - 1 do
      f e (Int32.to_int (Bigarray.Array1.get table e))
    done
  in
  (* [f b] on each entry of each row [b], once the row's columns in [m]
     are marked in [owner] and their slots in [pos] *)
  let walk (m : Sparse.Csr.t) f =
    Array.fill owner 0 n_coarse (-1);
    for b = 0 to n_coarse - 1 do
      for k = m.row_ptr.(b) to m.row_ptr.(b + 1) - 1 do
        owner.(m.col_idx.(k)) <- b;
        pos.(m.col_idx.(k)) <- k
      done;
      iter_row b (f b)
    done
  in
  let missing = ref (Option.is_none s.s_pattern) in
  Option.iter (fun m -> walk m (fun b _ c -> if owner.(c) <> b then missing := true)) s.s_pattern;
  if !missing then begin
    let m =
      Sparse.Csr.assemble ~rows:n_coarse ~cols:n_coarse (fun b emit ->
          iter_row b (fun _ c -> emit c 0.0))
    in
    s.s_pattern <- Some m
  end;
  walk (Option.get s.s_pattern) (fun _ e c -> Bigarray.Array1.set table e (Int32.of_int pos.(c)))

(* The one row pass of a solve: the operator's rows block by block (the
   order the refill walks them), every emitted entry appended to the table
   as its value and its coarse column, which [bind_slots] then turns into
   its slot. *)
let fill_table s op =
  let map = s.s_partition.Partition.map in
  reserve s (Cdr_op.nnz_estimate op);
  let e = ref 0 in
  let emit j v =
    if !e = Bigarray.Array1.dim s.s_entries then reserve s ((2 * !e) + 1);
    Bigarray.Array1.set (s.s_slots : ints) !e (Int32.of_int map.(j));
    Bigarray.Array1.set (s.s_entries : floats) !e v;
    incr e
  in
  for p = 0 to s.s_n - 1 do
    s.s_entry_ptr.(p) <- !e;
    Cdr_op.iter_row op s.s_bw_states.(p) emit
  done;
  s.s_entry_ptr.(s.s_n) <- !e;
  bind_slots s

let matches s op = Cdr_op.dim op = s.s_n

let solve_with ?(tol = 1e-12) ?(max_cycles = 200) ?(pre_smooth = 2) ?(post_smooth = 2)
    ?init ?trace ?pool ?cancel s op =
  if not (matches s op) then
    invalid_arg "Op_multigrid.solve_with: operator dimension does not match the setup";
  let n = s.s_n in
  let partition = s.s_partition in
  let n_coarse = partition.Partition.n_coarse in
  let map = partition.Partition.map in
  let bw_ptr = s.s_bw_ptr and bw_states = s.s_bw_states in
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
    for b = 0 to n_coarse - 1 do
      let mass = block_mass.(b) in
      let lo = bw_ptr.(b) and hi = bw_ptr.(b + 1) - 1 in
      if mass > 0.0 && Float.is_finite mass then
        for p = lo to hi do
          let i = bw_states.(p) in
          weights.(i) <- xv.(i) /. mass
        done
      else begin
        (* a block the iterate has not reached yet: aggregate uniformly so
           the coarse row stays stochastic *)
        let u = 1.0 /. float_of_int (hi - lo + 1) in
        for p = lo to hi do
          weights.(bw_states.(p)) <- u
        done
      end
    done
  in
  let row_passes = ref 0 in
  (* the coarse values of the current weights, in place: one flat loop over
     the table in emission order, so every coarse value sums the same
     products in the same order as an enumeration of the rows would; rows
     own disjoint value segments, so pooled refills are bitwise serial *)
  let build_coarse () =
    compute_weights ();
    let m0 = Option.get s.s_pattern in
    let values = m0.Sparse.Csr.values and entry_ptr = s.s_entry_ptr in
    let slots : ints = s.s_slots and entries : floats = s.s_entries in
    Array.fill values 0 (Array.length values) 0.0;
    let n_slots = coarse_slots n_coarse in
    Cdr_par.Pool.run_slots_opt pool ~slots:n_slots (fun sl ->
        let p_lo = bw_ptr.(n_coarse * sl / n_slots)
        and p_hi = bw_ptr.(n_coarse * (sl + 1) / n_slots) - 1 in
        for p = p_lo to p_hi do
          let w = weights.(bw_states.(p)) in
          for e = entry_ptr.(p) to entry_ptr.(p + 1) - 1 do
            let k = Int32.to_int (Bigarray.Array1.unsafe_get slots e) in
            Array.unsafe_set values k
              (Array.unsafe_get values k +. (w *. Bigarray.Array1.unsafe_get entries e))
          done
        done);
    m0
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
    Multigrid.cycle ?pool scratch cs chain s.s_coarse_x;
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
    (* the solve's one row pass: a setup transplanted to an operator with a
       wider nonzero structure gets its pattern assembled here *)
    if !continue_ && max_cycles > 0 then begin
      phase "rows" (fun () -> fill_table s op);
      incr row_passes
    end;
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
  Cdr_par.Pool.run_phases pool run_cycles;
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
      row_passes = !row_passes;
      table_bytes = table_bytes s;
    } )

let solve ?tol ?max_cycles ?pre_smooth ?post_smooth ?init ?trace ?pool ?cancel ?coarse_hierarchy
    ~partition op =
  solve_with ?tol ?max_cycles ?pre_smooth ?post_smooth ?init ?trace ?pool ?cancel
    (prepare ?coarse_hierarchy ~partition op)
    op
