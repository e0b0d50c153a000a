type t = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

let validate m =
  let { rows; cols; row_ptr; col_idx; values } = m in
  if rows < 0 || cols < 0 then invalid_arg "Csr: negative dimension";
  if Array.length row_ptr <> rows + 1 then invalid_arg "Csr: row_ptr length";
  if Array.length col_idx <> Array.length values then invalid_arg "Csr: col/values length mismatch";
  if row_ptr.(0) <> 0 || row_ptr.(rows) <> Array.length values then invalid_arg "Csr: row_ptr endpoints";
  for i = 0 to rows - 1 do
    if row_ptr.(i) > row_ptr.(i + 1) then invalid_arg "Csr: row_ptr not monotone";
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      if col_idx.(k) < 0 || col_idx.(k) >= cols then invalid_arg "Csr: column index out of range";
      if k > row_ptr.(i) && col_idx.(k - 1) >= col_idx.(k) then
        invalid_arg "Csr: columns not strictly increasing within a row"
    done
  done

let unsafe_make ~rows ~cols ~row_ptr ~col_idx ~values =
  let m = { rows; cols; row_ptr; col_idx; values } in
  validate m;
  m

let rows m = m.rows
let cols m = m.cols
let nnz m = Array.length m.values

let of_dense ?(drop_tol = 0.0) a =
  let rows = Linalg.Mat.rows a and cols = Linalg.Mat.cols a in
  let row_ptr = Array.make (rows + 1) 0 in
  let count = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if abs_float (Linalg.Mat.get a i j) > drop_tol then incr count
    done;
    row_ptr.(i + 1) <- !count
  done;
  let col_idx = Array.make !count 0 and values = Array.make !count 0.0 in
  let k = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let v = Linalg.Mat.get a i j in
      if abs_float v > drop_tol then begin
        col_idx.(!k) <- j;
        values.(!k) <- v;
        incr k
      end
    done
  done;
  unsafe_make ~rows ~cols ~row_ptr ~col_idx ~values

let to_dense m =
  let d = Linalg.Mat.create ~rows:m.rows ~cols:m.cols in
  for i = 0 to m.rows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      Linalg.Mat.set d i m.col_idx.(k) m.values.(k)
    done
  done;
  d

let identity n =
  unsafe_make ~rows:n ~cols:n
    ~row_ptr:(Array.init (n + 1) Fun.id)
    ~col_idx:(Array.init n Fun.id)
    ~values:(Array.make n 1.0)

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Csr.get: out of bounds";
  let lo = ref m.row_ptr.(i) and hi = ref (m.row_ptr.(i + 1) - 1) in
  let result = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = m.col_idx.(mid) in
    if c = j then begin
      result := m.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let row_index m i j =
  let lo = ref m.row_ptr.(i) and hi = ref (m.row_ptr.(i + 1) - 1) in
  let result = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = m.col_idx.(mid) in
    if c = j then begin
      result := mid;
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let iter_row m i f =
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    f m.col_idx.(k) m.values.(k)
  done

let iter m f =
  for i = 0 to m.rows - 1 do
    iter_row m i (fun j v -> f i j v)
  done

let fold m ~init ~f =
  let acc = ref init in
  iter m (fun i j v -> acc := f !acc i j v);
  !acc

(* Fixed slot grid for the parallel kernel. The slot count (and with it
   every chunk boundary and partial-merge grouping) depends only on the
   matrix, never on the pool's job count, so pooled results are bit-identical
   at jobs=1 and jobs=N. Small matrices collapse to one slot: the overhead of
   a batch exceeds the work. *)
let par_slot_count m =
  if nnz m < 1 lsl 14 then 1 else min 16 (max 1 (m.rows / 64))

let dot_row m x i =
  let acc = ref 0.0 in
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    acc := !acc +. (m.values.(k) *. x.(m.col_idx.(k)))
  done;
  !acc

let mul_vec m x =
  if Array.length x <> m.cols then invalid_arg "Csr.mul_vec: dimension mismatch";
  Array.init m.rows (dot_row m x)

let scatter_rows m x y ~lo ~hi =
  for i = lo to hi do
    let xi = x.(i) in
    if xi <> 0.0 then
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        y.(m.col_idx.(k)) <- y.(m.col_idx.(k)) +. (xi *. m.values.(k))
      done
  done

let vec_mul_into ?pool x m y =
  if Array.length x <> m.rows then invalid_arg "Csr.vec_mul: dimension mismatch";
  if Array.length y <> m.cols then invalid_arg "Csr.vec_mul: output dimension mismatch";
  let slots = match pool with None -> 1 | Some _ -> par_slot_count m in
  if slots <= 1 then begin
    Array.fill y 0 (Array.length y) 0.0;
    scatter_rows m x y ~lo:0 ~hi:(m.rows - 1)
  end
  else begin
    (* x*P over CSR rows scatters into shared output, so each slot of rows
       accumulates into its own partial vector; the partials are then merged
       pairwise in a fixed tree. Both the slot grid and the tree shape are
       independent of the job count, hence deterministic (see DESIGN.md). *)
    let partials = Array.init slots (fun _ -> Array.make m.cols 0.0) in
    Cdr_par.Pool.run_slots_opt pool ~slots (fun s ->
        scatter_rows m x partials.(s) ~lo:(s * m.rows / slots)
          ~hi:(((s + 1) * m.rows / slots) - 1));
    Cdr_par.Pool.merge_tree ?pool ~slots (fun ~dst ~src ->
        let pa = partials.(dst) and pb = partials.(src) in
        for j = 0 to m.cols - 1 do
          pa.(j) <- pa.(j) +. pb.(j)
        done);
    Array.blit partials.(0) 0 y 0 m.cols
  end

let vec_mul ?pool x m =
  let y = Array.make m.cols 0.0 in
  vec_mul_into ?pool x m y;
  y

let same_pattern a b =
  a.rows = b.rows && a.cols = b.cols
  && (a.row_ptr == b.row_ptr || a.row_ptr = b.row_ptr)
  && (a.col_idx == b.col_idx || a.col_idx = b.col_idx)

let refill m values =
  if Array.length values <> nnz m then invalid_arg "Csr.refill: values length must equal nnz";
  (* a plain loop: [Array.iter] with a closure boxes every value *)
  for k = 0 to Array.length values - 1 do
    if not (Float.is_finite values.(k)) then invalid_arg "Csr.refill: non-finite value"
  done;
  { m with values }

(* Two-pass assembly from a per-row enumerator: count distinct columns per
   row, fill and sort the column indices, then accumulate values straight
   into the final array — no COO staging, no per-row hash tables, no lists.
   [mark] stamps a column with the identity of the pass+row that last
   touched it, so neither counting pass resets it. *)
let assemble ?pool ~rows ~cols row =
  if rows < 0 || cols < 0 then invalid_arg "Csr.assemble: negative dimension";
  let mark = Array.make (max cols 1) (-1) in
  let row_ptr = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    let count = ref 0 in
    row i (fun j _ ->
        if j < 0 || j >= cols then invalid_arg "Csr.assemble: column out of range";
        if mark.(j) <> i then begin
          mark.(j) <- i;
          incr count
        end);
    row_ptr.(i + 1) <- row_ptr.(i) + !count
  done;
  let total = row_ptr.(rows) in
  let col_idx = Array.make total 0 in
  for i = 0 to rows - 1 do
    let pos = ref row_ptr.(i) in
    row i (fun j _ ->
        (* stamps offset by [rows] so the counting pass's stamps read as stale *)
        if mark.(j) <> rows + i then begin
          mark.(j) <- rows + i;
          col_idx.(!pos) <- j;
          incr pos
        end);
    (* insertion sort within the row: successor enumerations emit short,
       nearly sorted column runs *)
    for k = row_ptr.(i) + 1 to row_ptr.(i + 1) - 1 do
      let v = col_idx.(k) in
      let p = ref (k - 1) in
      while !p >= row_ptr.(i) && col_idx.(!p) > v do
        col_idx.(!p + 1) <- col_idx.(!p);
        decr p
      done;
      col_idx.(!p + 1) <- v
    done
  done;
  (* value fill: rows own disjoint segments of [values] and duplicates sum
     in emission order, so any slot schedule produces identical bits *)
  let values = Array.make total 0.0 in
  let fill i =
    row i (fun j v ->
        let lo = ref row_ptr.(i) and hi = ref (row_ptr.(i + 1) - 1) in
        let k = ref (-1) in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          let c = col_idx.(mid) in
          if c = j then begin
            k := mid;
            lo := !hi + 1
          end
          else if c < j then lo := mid + 1
          else hi := mid - 1
        done;
        values.(!k) <- values.(!k) +. v)
  in
  let slots =
    match pool with
    | None -> 1
    | Some _ -> if total < 1 lsl 14 then 1 else min 16 (max 1 (rows / 64))
  in
  Cdr_par.Pool.run_slots_opt pool ~slots (fun s ->
      for i = s * rows / slots to ((s + 1) * rows / slots) - 1 do
        fill i
      done);
  unsafe_make ~rows ~cols ~row_ptr ~col_idx ~values

let transpose m =
  let tn = Array.make m.cols 0 in
  Array.iter (fun j -> tn.(j) <- tn.(j) + 1) m.col_idx;
  let row_ptr = Array.make (m.cols + 1) 0 in
  for j = 0 to m.cols - 1 do
    row_ptr.(j + 1) <- row_ptr.(j) + tn.(j)
  done;
  let fill_pos = Array.copy row_ptr in
  let col_idx = Array.make (nnz m) 0 and values = Array.make (nnz m) 0.0 in
  for i = 0 to m.rows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let j = m.col_idx.(k) in
      let pos = fill_pos.(j) in
      col_idx.(pos) <- i;
      values.(pos) <- m.values.(k);
      fill_pos.(j) <- pos + 1
    done
  done;
  unsafe_make ~rows:m.cols ~cols:m.rows ~row_ptr ~col_idx ~values

let map f m = { m with values = Array.map f m.values }

let row_sums m =
  Array.init m.rows (fun i ->
      let acc = ref 0.0 and c = ref 0.0 in
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        let v = m.values.(k) -. !c in
        let t = !acc +. v in
        c := t -. !acc -. v;
        acc := t
      done;
      !acc)

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Csr.add: dimension mismatch";
  let row_ptr = Array.make (a.rows + 1) 0 in
  let cidx = ref [] and vals = ref [] in
  let count = ref 0 in
  for i = 0 to a.rows - 1 do
    (* merge the two sorted rows *)
    let ka = ref a.row_ptr.(i) and kb = ref b.row_ptr.(i) in
    let ea = a.row_ptr.(i + 1) and eb = b.row_ptr.(i + 1) in
    let push j v =
      if v <> 0.0 then begin
        cidx := j :: !cidx;
        vals := v :: !vals;
        incr count
      end
    in
    while !ka < ea || !kb < eb do
      if !kb >= eb || (!ka < ea && a.col_idx.(!ka) < b.col_idx.(!kb)) then begin
        push a.col_idx.(!ka) a.values.(!ka);
        incr ka
      end
      else if !ka >= ea || b.col_idx.(!kb) < a.col_idx.(!ka) then begin
        push b.col_idx.(!kb) b.values.(!kb);
        incr kb
      end
      else begin
        push a.col_idx.(!ka) (a.values.(!ka) +. b.values.(!kb));
        incr ka;
        incr kb
      end
    done;
    row_ptr.(i + 1) <- !count
  done;
  let col_idx = Array.of_list (List.rev !cidx) and values = Array.of_list (List.rev !vals) in
  unsafe_make ~rows:a.rows ~cols:a.cols ~row_ptr ~col_idx ~values

let equal ?(tol = 0.0) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  iter a (fun i j v -> if abs_float (v -. get b i j) > tol then ok := false);
  iter b (fun i j v -> if abs_float (v -. get a i j) > tol then ok := false);
  !ok

let pp_stats ppf m =
  let bandwidth =
    fold m ~init:0 ~f:(fun acc i j _ -> max acc (abs (i - j)))
  in
  let fill =
    if m.rows = 0 || m.cols = 0 then 0.0
    else float_of_int (nnz m) /. (float_of_int m.rows *. float_of_int m.cols)
  in
  Format.fprintf ppf "%dx%d, nnz=%d, fill=%.4f%%, bandwidth=%d" m.rows m.cols (nnz m)
    (100.0 *. fill) bandwidth
