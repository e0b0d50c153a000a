type term = { coeff : float; factors : Csr.t array; dims : int array }

type t = { n : int; terms : term list }

let term ?(coeff = 1.0) factors =
  if factors = [] then invalid_arg "Kron_op.term: empty factor list";
  List.iter
    (fun f -> if Csr.rows f <> Csr.cols f then invalid_arg "Kron_op.term: factors must be square")
    factors;
  let factors = Array.of_list factors in
  let dims = Array.map Csr.rows factors in
  let n = Array.fold_left ( * ) 1 dims in
  { n; terms = [ { coeff; factors; dims } ] }

(* Flat concatenation of the term lists: O(total terms), unlike the former
   per-operand [acc.terms @ op.terms] left fold that re-walked the growing
   accumulator for every operand. *)
let sum = function
  | [] -> invalid_arg "Kron_op.sum: empty list"
  | first :: _ as ops ->
      List.iter
        (fun op -> if op.n <> first.n then invalid_arg "Kron_op.sum: dimension mismatch")
        ops;
      { n = first.n; terms = List.concat_map (fun op -> op.terms) ops }

(* A (x) (sum_t c_t T_t) = sum_t c_t (A (x) T_t): prepending a leading
   factor distributes over the term list, so lifting an operator into a
   larger product space is O(terms) and shares every factor with the
   original. This is how an environment chain wraps a per-regime CDR
   operator without rebuilding its factors. *)
let lift a op =
  if Csr.rows a <> Csr.cols a then invalid_arg "Kron_op.lift: leading factor must be square";
  let r = Csr.rows a in
  if r = 0 then invalid_arg "Kron_op.lift: empty leading factor";
  {
    n = r * op.n;
    terms =
      List.map
        (fun t ->
          {
            t with
            factors = Array.append [| a |] t.factors;
            dims = Array.append [| r |] t.dims;
          })
        op.terms;
  }

let dim op = op.n

let n_terms op = List.length op.terms

let nnz_bound op =
  List.fold_left
    (fun acc t -> acc + Array.fold_left (fun p f -> p * Csr.nnz f) 1 t.factors)
    0 op.terms

(* Fixed slot grid for one middle contraction, a function of the operand
   shapes only (never of the pool's job count) — the same discipline as
   [Csr.par_slot_count], so pools of every size execute the identical slot
   schedule. Small contractions stay serial; otherwise parallelize the
   outer [l] blocks (disjoint contiguous output segments), falling back to
   chunks of the trailing [r] dimension when the term has no left blocks. *)
let middle_slots ~l ~r a =
  let work = l * r * Csr.nnz a in
  if work < 16384 then 1
  else if l >= 2 then min 16 l
  else min 16 (max 1 (r / 64))

(* The part of x * (I_l (x) A (x) I_r) in leading blocks [blk_lo, blk_hi)
   and trailing columns [c_lo, c_hi), x viewed as an (l, n, r) tensor whose
   middle index contracts against A's rows, read straight from A's CSR
   arrays: no closure call and no boxed value per entry. Every output
   element accumulates in ascending (row, entry) order, whatever the loop
   nest or slot layout. *)
let contract a x y ~l ~r ~blk_lo ~blk_hi ~c_lo ~c_hi =
  let n = Csr.rows a in
  let row_ptr = a.Csr.row_ptr and col_idx = a.Csr.col_idx and values = a.Csr.values in
  if Array.length x < l * n * r || Array.length y < l * n * r then
    invalid_arg "Kron_op: operand shorter than the contraction";
  if r = 1 then
    (* the last factor: one banded stencil per leading block *)
    for blk = blk_lo to blk_hi - 1 do
      let base = blk * n in
      for i = 0 to n - 1 do
        let xi = Array.unsafe_get x (base + i) in
        for k = Array.unsafe_get row_ptr i to Array.unsafe_get row_ptr (i + 1) - 1 do
          let j = base + Array.unsafe_get col_idx k in
          Array.unsafe_set y j (Array.unsafe_get y j +. (xi *. Array.unsafe_get values k))
        done
      done
    done
  else
    for i = 0 to n - 1 do
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let j = col_idx.(k) and v = values.(k) in
        for blk = blk_lo to blk_hi - 1 do
          let x_base = ((blk * n) + i) * r and y_base = ((blk * n) + j) * r in
          for c = c_lo to c_hi - 1 do
            Array.unsafe_set y (y_base + c)
              (Array.unsafe_get y (y_base + c) +. (Array.unsafe_get x (x_base + c) *. v))
          done
        done
      done
    done

(* x * (I_l (x) A (x) I_r) into [y], fully overwritten; without a pool one
   call that allocates nothing. With one, slot [s] owns the leading blocks
   [l*s/slots, l*(s+1)/slots) or, when l = 1, the trailing columns
   [r*s/slots, r*(s+1)/slots) of every row block: element-disjoint either
   way, so pooled results are bitwise the serial one for any job count. *)
let middle ?pool ~l ~r a x y =
  Array.fill y 0 (Array.length y) 0.0;
  let slots = match pool with None -> 1 | Some _ -> middle_slots ~l ~r a in
  if slots = 1 then contract a x y ~l ~r ~blk_lo:0 ~blk_hi:l ~c_lo:0 ~c_hi:r
  else
    Cdr_par.Pool.run_slots_opt pool ~slots (fun s ->
        if l >= 2 then
          contract a x y ~l ~r ~blk_lo:(l * s / slots) ~blk_hi:(l * (s + 1) / slots) ~c_lo:0
            ~c_hi:r
        else
          contract a x y ~l ~r ~blk_lo:0 ~blk_hi:1 ~c_lo:(r * s / slots)
            ~c_hi:(r * (s + 1) / slots))

(* [middle] under a profiler phase per contraction, so an enabled profiler
   attributes kron-backend time the same way V-cycle legs are attributed;
   the closure and label list are only built when profiling is on (the
   gate is one atomic load) *)
let apply_middle ?pool ~l ~r a x y =
  if not (Cdr_par.Pool.profiling_on ()) then middle ?pool ~l ~r a x y
  else
    let label k v = (k, string_of_int v) in
    Cdr_par.Pool.with_phase "kron-middle"
      ~labels:[ label "factor" (Csr.rows a); label "l" l; label "r" r ]
      (fun () -> middle ?pool ~l ~r a x y)

(* Reusable ping-pong buffers for the factor sweep: one [apply_into] needs
   exactly two length-n scratch vectors regardless of the number of factors
   or terms, so callers allocate once per solve, not once per iteration. *)
type workspace = { buf_a : Linalg.Vec.t; buf_b : Linalg.Vec.t }

let workspace op = { buf_a = Array.make op.n 0.0; buf_b = Array.make op.n 0.0 }

(* Applies one term's factor chain, returning whichever workspace buffer
   holds x * (A_1 (x) ... (x) A_k). The first contraction reads [x] in
   place; later ones ping-pong between the two buffers. The coefficient is
   NOT applied here — the caller fuses it into its accumulation pass. *)
let apply_term_into ?pool t ~ws x =
  let cur = ref x in
  let left = ref 1 and right = ref (Array.fold_left ( * ) 1 t.dims) in
  for f = 0 to Array.length t.factors - 1 do
    let a = t.factors.(f) in
    let n = Csr.rows a in
    let out = if !cur == ws.buf_a then ws.buf_b else ws.buf_a in
    right := !right / n;
    apply_middle ?pool ~l:!left ~r:!right a !cur out;
    cur := out;
    left := !left * n
  done;
  !cur

let apply_into ?pool op ~ws x y =
  if Array.length x <> op.n then invalid_arg "Kron_op.apply_into: dimension mismatch";
  if Array.length y <> op.n then invalid_arg "Kron_op.apply_into: output dimension mismatch";
  if Array.length ws.buf_a <> op.n then invalid_arg "Kron_op.apply_into: workspace dimension";
  Array.fill y 0 op.n 0.0;
  List.iter
    (fun t ->
      let res = apply_term_into ?pool t ~ws x in
      let c = t.coeff in
      for idx = 0 to op.n - 1 do
        y.(idx) <- y.(idx) +. (c *. res.(idx))
      done)
    op.terms

let apply ?pool op x =
  if op.terms = [] then invalid_arg "Kron_op.apply: empty operator";
  let ws = workspace op in
  let y = Array.make op.n 0.0 in
  apply_into ?pool op ~ws x y;
  y

(* Row sums without an apply: the row sum of coeff * A_1 (x) ... (x) A_k at
   the mixed-radix row (i_1, .., i_k) is coeff * prod_f rowsum_f(i_f), so we
   expand the per-factor row-sum vectors as a rank-1 tensor, term by term. *)
let row_sums op =
  let out = Array.make op.n 0.0 in
  List.iter
    (fun t ->
      let acc = ref [| t.coeff |] in
      Array.iter
        (fun a ->
          let rs = Csr.row_sums a in
          let m = Array.length rs in
          let prev = !acc in
          let np = Array.length prev in
          let next = Array.make (np * m) 0.0 in
          for b = 0 to np - 1 do
            let base = b * m in
            let pv = prev.(b) in
            for i = 0 to m - 1 do
              next.(base + i) <- pv *. rs.(i)
            done
          done;
          acc := next)
        t.factors;
      let tv = !acc in
      for i = 0 to op.n - 1 do
        out.(i) <- out.(i) +. tv.(i)
      done)
    op.terms;
  out

(* Entries of one global row, term by term; within a term, the lexicographic
   cross product of the factor-row entries, each value the left-to-right
   product ((coeff * a_1) * a_2) * ... and each column the mixed-radix
   composition of the factor columns. Duplicate columns (across terms, or
   from coinciding factor products) are emitted separately — consumers like
   [Csr.assemble] sum them in emission order. The factor row of factor [f]
   is (i / rest_f) mod dims_f, rest_f the product of the later dims. The
   recursion walks the factor rows' CSR arrays directly and allocates
   neither an index array nor a closure; the last factor's loop emits in
   place, so no call (and no boxed product) is made per emitted entry. A
   term has at least one factor. *)
let rec iter_factors t i emit f rest col acc =
  let a = t.factors.(f) and d = t.dims.(f) in
  let rest = rest / d in
  let r = i / rest mod d in
  if f = Array.length t.dims - 1 then
    for k = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
      emit ((col * d) + a.Csr.col_idx.(k)) (acc *. a.Csr.values.(k))
    done
  else
    for k = a.Csr.row_ptr.(r) to a.Csr.row_ptr.(r + 1) - 1 do
      iter_factors t i emit (f + 1) rest ((col * d) + a.Csr.col_idx.(k)) (acc *. a.Csr.values.(k))
    done

let iter_term t i emit = iter_factors t i emit 0 (Array.fold_left ( * ) 1 t.dims) 0 t.coeff

let rec iter_terms terms i emit =
  match terms with
  | [] -> ()
  | t :: rest ->
      iter_term t i emit;
      iter_terms rest i emit

let iter_row op i emit = iter_terms op.terms i emit

let to_csr op =
  let materialize_term t =
    let k = Kron.product_list (Array.to_list t.factors) in
    Csr.map (fun v -> t.coeff *. v) k
  in
  match op.terms with
  | [] -> invalid_arg "Kron_op.to_csr: empty operator"
  | first :: rest ->
      List.fold_left (fun acc t -> Csr.add acc (materialize_term t)) (materialize_term first) rest
