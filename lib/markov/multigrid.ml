type stats = { cycles : int; levels : int; coarsest_size : int; smoothing_sweeps : int }

exception Cancelled

(* Fixed slot grid for the pooled V-cycle kernels: a pure function of the
   problem size, never of the job count, so the slot schedule (and therefore
   every float-accumulation order) is identical with and without a pool. *)
let slot_count len = if len < 4096 then 1 else min 16 (len / 2048)

let default_hierarchy ~n ~coarsest =
  if coarsest < 1 then invalid_arg "Multigrid.default_hierarchy: coarsest must be >= 1";
  let rec build n acc =
    if n <= coarsest then List.rev acc
    else
      let p = Partition.pair_consecutive n in
      build p.Partition.n_coarse (p :: acc)
  in
  build n []

let validate_hierarchy ~n hierarchy =
  let rec check n = function
    | [] -> ()
    | p :: rest ->
        if p.Partition.n_fine <> n then
          invalid_arg
            (Printf.sprintf "Multigrid.solve: hierarchy level expects %d states, chain has %d"
               p.Partition.n_fine n);
        check p.Partition.n_coarse rest
  in
  check n hierarchy

(* ---- compact storage ---------------------------------------------------
   Every index array a setup keeps between solves is an int32 Bigarray: half
   the bytes of an OCaml int array, and off the OCaml heap, so the GC never
   marks or moves it. The build works on ordinary int arrays and drops them
   once a level is compacted. A setup copies nothing the chain holds: the
   finest level reads the chain's own values, and [matches] its own
   structure arrays. *)

type ints = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints_of_array a =
  let b = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout (Array.length a) in
  Array.iteri
    (fun i v ->
      if v > 0x7fff_ffff then invalid_arg "Multigrid.setup: index exceeds the int32 range";
      Bigarray.Array1.unsafe_set b i (Int32.of_int v))
    a;
  b

let[@inline] ( .%() ) (b : ints) i = Int32.to_int (Bigarray.Array1.get b i)

(* A level's row-major sparsity pattern during the build. *)
type csr_pattern = { n : int; row_ptr : int array; col_idx : int array }

(* Transpose of the pattern by counting sort, with [trans_perm.(k)] the
   position in the transposed value array of entry [k]. *)
let transpose (p : csr_pattern) =
  let nnz = Array.length p.col_idx in
  let trans_row_ptr = Array.make (p.n + 1) 0 in
  Array.iter (fun j -> trans_row_ptr.(j + 1) <- trans_row_ptr.(j + 1) + 1) p.col_idx;
  for j = 0 to p.n - 1 do
    trans_row_ptr.(j + 1) <- trans_row_ptr.(j + 1) + trans_row_ptr.(j)
  done;
  let pos = Array.sub trans_row_ptr 0 p.n in
  let trans_col_idx = Array.make nnz 0 in
  let trans_perm = Array.make nnz 0 in
  for i = 0 to p.n - 1 do
    for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
      let j = p.col_idx.(k) in
      trans_col_idx.(pos.(j)) <- i;
      trans_perm.(k) <- pos.(j);
      pos.(j) <- pos.(j) + 1
    done
  done;
  (trans_row_ptr, trans_col_idx, trans_perm)

(* One coarsening step, as the cycle reads it. Block [b] owns the fine
   states [bw_states.(bw_ptr.(b)) .. bw_states.(bw_ptr.(b+1) - 1)],
   ascending. Coarse row [b] is the image of those states' fine rows, so
   walking them in that order visits the row's fine entries in ascending
   entry order: every coarse value slot and every block sum accumulates in
   the order of a serial scan over all entries, and coarse rows (blocks)
   are write-disjoint, which is what lets the pooled kernels split them over
   slots with bitwise identical results. *)
type aggregation = {
  n_coarse : int;
  target : ints; (* fine entry k -> index in the coarse value array *)
  bw_ptr : ints;
  bw_states : ints;
  block_weight : Linalg.Vec.t; (* |coarse| scratch: the iterate's block sums *)
}

(* Sort [a.(lo) .. a.(hi - 1)] ascending in place. *)
let sort_range a lo hi =
  let sub = Array.sub a lo (hi - lo) in
  Array.sort Int.compare sub;
  Array.blit sub 0 a lo (hi - lo)

(* Symbolic aggregation: the coarse pattern is the image of the fine pattern
   under the partition, built once, block by block. Coarse row [b] collects
   the distinct blocks of its fine rows' columns ([owner] marks the ones
   already seen), sorts them, and then maps each fine entry to its coarse
   slot. *)
let make_aggregation (fine : csr_pattern) partition =
  let nc = partition.Partition.n_coarse in
  let block = partition.Partition.map in
  let bw_ptr, bw_states = Partition.members partition in
  let row_ptr = Array.make (nc + 1) 0 in
  let cols = Array.make (Array.length fine.col_idx) 0 (* coarse nnz <= fine nnz *) in
  let owner = Array.make nc (-1) and slot = Array.make nc 0 in
  let target = Array.make (Array.length fine.col_idx) 0 in
  let iter_entries b f =
    for idx = bw_ptr.(b) to bw_ptr.(b + 1) - 1 do
      let i = bw_states.(idx) in
      for k = fine.row_ptr.(i) to fine.row_ptr.(i + 1) - 1 do
        f k block.(fine.col_idx.(k))
      done
    done
  in
  for b = 0 to nc - 1 do
    let lo = row_ptr.(b) in
    let hi = ref lo in
    iter_entries b (fun _ bj ->
        if owner.(bj) <> b then begin
          owner.(bj) <- b;
          cols.(!hi) <- bj;
          incr hi
        end);
    sort_range cols lo !hi;
    for p = lo to !hi - 1 do
      slot.(cols.(p)) <- p
    done;
    iter_entries b (fun k bj -> target.(k) <- slot.(bj));
    row_ptr.(b + 1) <- !hi
  done;
  ( {
      n_coarse = nc;
      target = ints_of_array target;
      bw_ptr = ints_of_array bw_ptr;
      bw_states = ints_of_array bw_states;
      block_weight = Array.make nc 0.0;
    },
    { n = nc; row_ptr; col_idx = Array.sub cols 0 row_ptr.(nc) } )

(* What a level above the coarsest reads: the transposed pattern the
   smoother sweeps, the transposed values it sweeps over (refilled from the
   level's values by one scatter per visit), and the aggregation onto the
   next level. *)
type down = {
  trans_row_ptr : ints;
  trans_col_idx : ints;
  trans_perm : ints; (* fine entry k -> its position in [trans_values] *)
  trans_values : floats;
  agg : aggregation;
}

(* One level of the setup. *)
type level = {
  n : int;
  row_ptr : ints; (* aggregation walks rows; the coarsest fills GTH by row *)
  col_idx : ints; (* the coarsest level's only: the dense GTH fill *)
  values : Linalg.Vec.t; (* empty at the finest, which reads the chain's own *)
  x : Linalg.Vec.t; (* this level's iterate *)
  down : down option; (* None at the coarsest, which is solved directly *)
}

(* Everything a V-cycle needs that depends on the sparsity structure alone.
   Computed once per structure by [setup]; every [solve_with] against it
   only touches values. *)
type setup = {
  setup_n : int;
  (* the structure arrays of the CSR the setup was built from, kept so
     [matches] can accept refilled matrices (physically shared pattern) in
     O(1) and structurally equal ones in O(nnz) *)
  ref_row_ptr : int array;
  ref_col_idx : int array;
  levels : level array;
}

(* ---- cycle kernels ------------------------------------------------------ *)

(* Coarse row [i]: block [i]'s weight [bw] (the iterate's ascending sum,
   also the restricted iterate), then the block's fine rows weighted by the
   iterate relative to [bw] (uniformly when the block carries no mass),
   summed into the row's value slots and renormalized to sum 1. [bw] is
   computed here, not passed in: a float crossing a call is boxed. *)
let aggregate_row ~(fine : level) agg ~fine_values ~(coarse : level) i =
  let b_lo = agg.bw_ptr.%(i) and b_hi = agg.bw_ptr.%(i + 1) - 1 in
  let acc = ref 0.0 in
  for idx = b_lo to b_hi do
    acc := !acc +. fine.x.(agg.bw_states.%(idx))
  done;
  let bw = !acc in
  agg.block_weight.(i) <- bw;
  let k_lo = coarse.row_ptr.%(i) and k_hi = coarse.row_ptr.%(i + 1) - 1 in
  let coarse_values = coarse.values in
  for k = k_lo to k_hi do
    coarse_values.(k) <- 0.0
  done;
  let w_uniform = 1.0 /. float_of_int (b_hi - b_lo + 1) in
  for idx = b_lo to b_hi do
    let fi = agg.bw_states.%(idx) in
    let w = if bw > 0.0 then fine.x.(fi) /. bw else w_uniform in
    for k = fine.row_ptr.%(fi) to fine.row_ptr.%(fi + 1) - 1 do
      let t = agg.target.%(k) in
      coarse_values.(t) <- coarse_values.(t) +. (w *. fine_values.(k))
    done
  done;
  (* renormalize the row: rounding dust accumulates across levels *)
  let sum = ref 0.0 in
  for k = k_lo to k_hi do
    sum := !sum +. coarse_values.(k)
  done;
  if !sum > 0.0 then
    for k = k_lo to k_hi do
      coarse_values.(k) <- coarse_values.(k) /. !sum
    done

(* Numeric aggregation, one pooled batch over coarse rows: rows own
   disjoint value slots and block weights, so pooled results are bitwise
   the serial ones for any job count. *)
let aggregate ?pool ~fine agg ~fine_values ~coarse =
  let nc = agg.n_coarse in
  let slots = slot_count nc in
  Cdr_par.Pool.run_slots_opt pool ~slots (fun s ->
      for i = s * nc / slots to (((s + 1) * nc / slots) - 1) do
        aggregate_row ~fine agg ~fine_values ~coarse i
      done)

(* Multiplicative prolongation: element-wise over fine states, walked block
   by block (each state's update is independent, so the walk order moves no
   bit; blocks are write-disjoint). *)
let prolong_iterate ?pool agg ~coarse ~x =
  let nc = agg.n_coarse in
  let slots = slot_count nc in
  Cdr_par.Pool.run_slots_opt pool ~slots (fun s ->
      for b = s * nc / slots to (((s + 1) * nc / slots) - 1) do
        let bw = agg.block_weight.(b) in
        let size = agg.bw_ptr.%(b + 1) - agg.bw_ptr.%(b) in
        for idx = agg.bw_ptr.%(b) to agg.bw_ptr.%(b + 1) - 1 do
          let i = agg.bw_states.%(idx) in
          x.(i) <- (if bw > 0.0 then coarse.(b) *. x.(i) /. bw else coarse.(b) /. float_of_int size)
        done
      done)

(* Refill the transposed values the smoother sweeps. Kept a separate leg
   rather than folded into the sweeps: reading through the inverse
   permutation would turn each sweep's sequential reads into gathers,
   repeated [pre + post] times per cycle (see DESIGN.md on the dispatch-cost
   model). *)
let scatter_transpose ?pool d values =
  let nnz = Array.length values in
  let slots = slot_count nnz in
  Cdr_par.Pool.run_slots_opt pool ~slots (fun s ->
      let tvals = d.trans_values in
      for k = s * nnz / slots to (((s + 1) * nnz / slots) - 1) do
        Bigarray.Array1.unsafe_set tvals d.trans_perm.%(k) (Array.unsafe_get values k)
      done)

(* Gauss-Seidel update of row [i] for pi(I - P) = 0 on the transposed
   pattern: the off-diagonal inflow over the diagonal's complement. *)
let[@inline] gauss_seidel_row d x i =
  let tcol = d.trans_col_idx and tvals = d.trans_values in
  let acc = ref 0.0 and self = ref 0.0 in
  for k = d.trans_row_ptr.%(i) to d.trans_row_ptr.%(i + 1) - 1 do
    let j = Int32.to_int (Bigarray.Array1.unsafe_get tcol k) in
    let v = Bigarray.Array1.unsafe_get tvals k in
    if j = i then self := v else acc := !acc +. (v *. Array.unsafe_get x j)
  done;
  let denom = 1.0 -. !self in
  Array.unsafe_set x i (if denom < 1e-300 then Array.unsafe_get x i else !acc /. denom)

let normalize_sweep x =
  let n = Array.length x in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. Array.unsafe_get x i
  done;
  if !s > 0.0 then
    for i = 0 to n - 1 do
      Array.unsafe_set x i (Array.unsafe_get x i /. !s)
    done

let gauss_seidel_sweeps d x sweeps =
  for _ = 1 to sweeps do
    for i = 0 to Array.length x - 1 do
      gauss_seidel_row d x i
    done;
    normalize_sweep x
  done

(* ---- setup ------------------------------------------------------------- *)

let setup ~hierarchy chain =
  let n = Chain.n_states chain in
  validate_hierarchy ~n hierarchy;
  let fine_csr = Chain.tpm chain in
  (* levels until the size drops under the direct-solve bound or the
     hierarchy ends; the finest level's values stay in the chain *)
  let rec build l (pat : csr_pattern) hierarchy_rest acc =
    let nnz = Array.length pat.col_idx in
    let level down ~col_idx =
      {
        n = pat.n;
        row_ptr = ints_of_array pat.row_ptr;
        col_idx = ints_of_array col_idx;
        values = (if l = 0 then [||] else Array.make nnz 0.0);
        x = Array.make pat.n 0.0;
        down;
      }
    in
    match hierarchy_rest with
    | partition :: rest when pat.n > Gth.max_direct_size ->
        let agg, coarse = make_aggregation pat partition in
        let trans_row_ptr, trans_col_idx, trans_perm = transpose pat in
        let down =
          {
            trans_row_ptr = ints_of_array trans_row_ptr;
            trans_col_idx = ints_of_array trans_col_idx;
            trans_perm = ints_of_array trans_perm;
            trans_values = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout nnz;
            agg;
          }
        in
        build (l + 1) coarse rest (level (Some down) ~col_idx:[||] :: acc)
    | _ -> List.rev (level None ~col_idx:pat.col_idx :: acc)
  in
  let fine =
    { n; row_ptr = fine_csr.Sparse.Csr.row_ptr; col_idx = fine_csr.Sparse.Csr.col_idx }
  in
  {
    setup_n = n;
    ref_row_ptr = fine_csr.Sparse.Csr.row_ptr;
    ref_col_idx = fine_csr.Sparse.Csr.col_idx;
    levels = Array.of_list (build 0 fine hierarchy []);
  }

let levels s = Array.length s.levels

let matches s chain =
  let m = Chain.tpm chain in
  Chain.n_states chain = s.setup_n
  && (m.Sparse.Csr.row_ptr == s.ref_row_ptr || m.Sparse.Csr.row_ptr = s.ref_row_ptr)
  && (m.Sparse.Csr.col_idx == s.ref_col_idx || m.Sparse.Csr.col_idx = s.ref_col_idx)

(* ---- byte accounting ----------------------------------------------------
   A heap block of [w] fields takes [w] words plus a header word; a 1-D
   Bigarray is a 6-field custom block on the heap plus its payload off it.
   The sums below follow the record definitions above field for field. *)

let block_bytes words = 8 * (1 + words)

let ints_bytes (b : ints) = block_bytes 6 + (4 * Bigarray.Array1.dim b)

let floats_bytes (b : floats) = block_bytes 6 + (8 * Bigarray.Array1.dim b)

let option_bytes f = function None -> 0 | Some v -> block_bytes 1 + f v

let aggregation_bytes a =
  block_bytes 5 + ints_bytes a.target + ints_bytes a.bw_ptr + ints_bytes a.bw_states
  + block_bytes (Array.length a.block_weight)

let down_bytes d =
  block_bytes 5 + ints_bytes d.trans_row_ptr + ints_bytes d.trans_col_idx + ints_bytes d.trans_perm
  + floats_bytes d.trans_values + aggregation_bytes d.agg

let level_bytes (l : level) =
  block_bytes 6 + ints_bytes l.row_ptr + ints_bytes l.col_idx
  + block_bytes (Array.length l.values)
  + block_bytes (Array.length l.x)
  + option_bytes down_bytes l.down

let setup_bytes s =
  Array.fold_left
    (fun acc l -> acc + level_bytes l)
    (block_bytes 4
    + block_bytes (Array.length s.ref_row_ptr)
    + block_bytes (Array.length s.ref_col_idx)
    + block_bytes (Array.length s.levels))
    s.levels

(* ---- one cycle ---------------------------------------------------------- *)

(* The coarsest level's direct-solve buffers: the dense matrix GTH eliminates
   in place and its exit masses, with a count of the cycles run in them.
   Owned by the caller, so a solver running cycles against a setup many
   times allocates them once. *)
type scratch = { dense : float array; exit : float array; mutable cycles_run : int }

let scratch s =
  let nc = s.levels.(Array.length s.levels - 1).n in
  { dense = Array.make (nc * nc) 0.0; exit = Array.make nc 1.0; cycles_run = 0 }

let scratch_cycles scratch = scratch.cycles_run

(* One cycle from the finest level's iterate [levels.(0).x], in place,
   counted in [scratch]. [note_sweeps level sweeps] is told about every
   smoothing call. *)
let run_cycle ~gamma ~pre_smooth ~post_smooth ?pool ~note_sweeps scratch s fine_values =
  let levels = s.levels in
  let n_levels = Array.length levels in
  let coarsest = levels.(n_levels - 1) in
  let values l = if l = 0 then fine_values else levels.(l).values in
  let nc = coarsest.n in
  let dense = scratch.dense and exit = scratch.exit in
  let smooth l d sweeps =
    gauss_seidel_sweeps d levels.(l).x sweeps;
    note_sweeps l sweeps
  in
  (* dense GTH on the coarsest level, straight into its iterate *)
  let solve_coarsest () =
    let v = values (n_levels - 1) in
    Array.fill dense 0 (nc * nc) 0.0;
    for i = 0 to nc - 1 do
      for k = coarsest.row_ptr.%(i) to coarsest.row_ptr.%(i + 1) - 1 do
        dense.((i * nc) + coarsest.col_idx.%(k)) <- v.(k)
      done
    done;
    Gth.solve_in_place ~n:nc dense ~exit coarsest.x
  in
  (* each leaf stage of the cycle runs in a [multigrid.<stage>] span with a
     [level] attribute; spans wrap the leaves only, never the recursion, so
     stage durations are disjoint and sum to (almost all of) the cycle wall.
     With recording off a stage costs one flag test: the label is built
     only for a span that is recorded *)
  let rec cycle l =
    let stage name f =
      if Cdr_obs.Span.recording () then
        Cdr_obs.Span.with_ ~name ~attrs:[ ("level", string_of_int l) ] f
      else f ()
    in
    match levels.(l).down with
    | None -> stage "multigrid.coarsest" solve_coarsest
    | Some d ->
        let fine = levels.(l) and coarse = levels.(l + 1) in
        let agg = d.agg and fine_values = values l in
        stage "multigrid.scatter" (fun () -> scatter_transpose ?pool d fine_values);
        stage "multigrid.smooth" (fun () -> smooth l d pre_smooth);
        stage "multigrid.aggregate" (fun () -> aggregate ?pool ~fine agg ~fine_values ~coarse);
        (* restriction = the block weights aggregate just computed *)
        stage "multigrid.restrict" (fun () ->
            Array.blit agg.block_weight 0 coarse.x 0 agg.n_coarse);
        cycle (l + 1);
        (* W-cycles ([gamma = 2]) revisit the coarse hierarchy below the finest
           level: the second recursion re-aggregates level l+1 with the coarse
           iterate the first one improved, which is what keeps the cycle count
           near-constant as pairwise aggregation deepens the hierarchy (plain
           V-cycles with piecewise-constant transfers degrade with depth). The
           coarsest level is exact — revisiting it would recompute the same GTH
           solution — so the extra visit stops one level above it. *)
        if gamma > 1 && l > 0 && l + 1 < n_levels - 1 then cycle (l + 1);
        (* multiplicative prolongation using the pre-recursion block weights *)
        stage "multigrid.prolong" (fun () ->
            prolong_iterate ?pool agg ~coarse:coarse.x ~x:fine.x;
            let s = Linalg.Vec.sum fine.x in
            if s > 0.0 then Linalg.Vec.scale_in_place (1.0 /. s) fine.x);
        stage "multigrid.smooth" (fun () -> smooth l d post_smooth)
  in
  cycle 0;
  scratch.cycles_run <- scratch.cycles_run + 1

let cycle ?(pre_smooth = 2) ?(post_smooth = 2) ?pool scratch s chain x =
  if not (matches s chain) then
    invalid_arg "Multigrid.cycle: chain sparsity pattern does not match the setup";
  let n = s.setup_n in
  if Array.length x <> n then invalid_arg "Multigrid.cycle: iterate dimension";
  let nc = s.levels.(Array.length s.levels - 1).n in
  if Array.length scratch.dense < nc * nc || Array.length scratch.exit < nc then
    invalid_arg "Multigrid.cycle: scratch is smaller than the setup's coarsest level";
  let x0 = s.levels.(0).x in
  Array.blit x 0 x0 0 n;
  Linalg.Vec.normalize_l1 x0;
  run_cycle ~gamma:1 ~pre_smooth ~post_smooth ?pool
    ~note_sweeps:(fun _ _ -> ())
    scratch s (Chain.tpm chain).Sparse.Csr.values;
  Array.blit x0 0 x 0 n

(* ---- solve ------------------------------------------------------------- *)

let solve_with ?(tol = 1e-12) ?(max_cycles = 200) ?(pre_smooth = 2) ?(post_smooth = 2)
    ?(cycle = `V) ?init ?trace ?pool ?cancel s chain =
  if not (matches s chain) then
    invalid_arg "Multigrid.solve_with: chain sparsity pattern does not match the setup";
  let gamma = match cycle with `V -> 1 | `W -> 2 in
  let n = s.setup_n in
  let n_levels = Array.length s.levels in
  (* the finest level reads the chain's values in place *)
  let fine_values = (Chain.tpm chain).Sparse.Csr.values in
  (* per-solve scratch, reused by every cycle: the coarsest level's dense
     GTH buffers, and x*P for the residual test *)
  let scratch = scratch s in
  let next = Array.make n 0.0 in
  let smoothing_sweeps = ref 0 in
  let note_sweeps level sweeps =
    smoothing_sweeps := !smoothing_sweeps + sweeps;
    match trace with
    | Some t -> Cdr_obs.Trace.record_sweeps t ~level ~sweeps
    | None -> ()
  in
  let x0 = s.levels.(0).x in
  (match init with
  | Some v ->
      Array.blit v 0 x0 0 n;
      Linalg.Vec.normalize_l1 x0
  | None -> Array.fill x0 0 n (1.0 /. float_of_int n));
  let cycles = ref 0 in
  let continue_ = ref (n > 0) in
  (* the cooperative-cancellation point: between V-cycles only, so a firing
     hook never interrupts a half-updated workspace mid-cycle (the next
     [solve_with] against this setup overwrites every workspace anyway) *)
  let cancelled () = match cancel with Some f -> f () | None -> false in
  while !continue_ && !cycles < max_cycles do
    if cancelled () then raise Cancelled;
    run_cycle ~gamma ~pre_smooth ~post_smooth ?pool ~note_sweeps scratch s fine_values;
    incr cycles;
    let residual =
      Cdr_obs.Span.with_ ~name:"multigrid.residual" ~attrs:[ ("level", "0") ] (fun () ->
          Chain.residual ?pool ~scratch:next chain x0)
    in
    (match trace with
    | Some t -> Cdr_obs.Trace.record t ~iter:!cycles ~residual
    | None -> ());
    if residual <= tol then continue_ := false
  done;
  let solution = Solution.make ~chain ~pi:(Array.copy x0) ~iterations:!cycles ~tol in
  ( solution,
    {
      cycles = !cycles;
      levels = n_levels;
      coarsest_size = s.levels.(n_levels - 1).n;
      smoothing_sweeps = !smoothing_sweeps;
    } )

let solve ?tol ?max_cycles ?pre_smooth ?post_smooth ?cycle ?init ?trace ?pool ?cancel ~hierarchy
    chain =
  solve_with ?tol ?max_cycles ?pre_smooth ?post_smooth ?cycle ?init ?trace ?pool ?cancel
    (setup ~hierarchy chain) chain
