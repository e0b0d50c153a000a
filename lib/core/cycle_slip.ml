let crossing cfg ~phase i j = Phase_error.crosses_boundary cfg ~src:(phase i) ~dst:(phase j)

let flux cfg ~phase op ~pi = Markov.Passage.flux op ~pi ~crossing:(crossing cfg ~phase)

let mean_of_rate r = if r <= 0.0 then Float.infinity else 1.0 /. r

let rate model ~pi =
  flux model.Model.config ~phase:model.Model.phase_bin (Model.operator model) ~pi

let mean_time_between model ~pi = mean_of_rate (rate model ~pi)

let lock_index model =
  let d0, c0, p0 = Model.initial_state model.Model.config in
  match model.Model.index_of ~data:d0 ~counter:c0 ~phase:p0 with
  | Some idx -> idx
  | None -> invalid_arg "Cycle_slip: initial state unreachable"

(* The restart chain: the TPM with the mass of every boundary-crossing entry
   moved to the lock state's column. Built in one pass over the rows straight
   into CSR arrays: a row's crossing mass is summed first, then its kept
   entries are copied with the lock column merged in at its sorted place. *)
let restart_tpm model ~lock =
  let { Sparse.Csr.rows = n; row_ptr; col_idx; values; _ } = Markov.Chain.tpm model.Model.chain in
  let crossing = crossing model.Model.config ~phase:model.Model.phase_bin in
  let cap = Array.length col_idx + n in
  let cols = Array.make cap 0 and vals = Array.make cap 0.0 in
  let ptr = Array.make (n + 1) 0 in
  let k = ref 0 in
  let emit j v =
    cols.(!k) <- j;
    vals.(!k) <- v;
    incr k
  in
  for i = 0 to n - 1 do
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    let to_lock = ref 0.0 in
    for e = lo to hi - 1 do
      if crossing i col_idx.(e) then to_lock := !to_lock +. values.(e)
    done;
    (* [pending] while the redirected mass still awaits its slot *)
    let pending = ref (!to_lock > 0.0) in
    for e = lo to hi - 1 do
      let j = col_idx.(e) in
      if not (crossing i j) then begin
        if !pending && j > lock then begin
          emit lock !to_lock;
          pending := false
        end;
        if j = lock then begin
          emit j (values.(e) +. !to_lock);
          pending := false
        end
        else emit j values.(e)
      end
    done;
    if !pending then emit lock !to_lock;
    ptr.(i + 1) <- !k
  done;
  Sparse.Csr.unsafe_make ~rows:n ~cols:n ~row_ptr:ptr ~col_idx:(Array.sub cols 0 !k)
    ~values:(Array.sub vals 0 !k)

(* Renewal: run the chain from lock and restart it at lock on every slip.
   The restarted chain's cycles are i.i.d. copies of the time to the first
   slip, so E_lock[T_slip] = 1 / (its stationary slip rate). The crossing
   entries keep their original destinations in [Model.operator], so the
   slip rate is the ordinary crossing flux evaluated at the restart chain's
   stationary vector. *)
let first_slip ?(ctx = Context.default) model =
  Cdr_obs.Span.with_ ~name:"passage.first_slip" @@ fun () ->
  let chain = Markov.Chain.of_csr (restart_tpm model ~lock:(lock_index model)) in
  (* the restart pattern differs from the model's: a cached setup for it
     would only evict the model's reusable stationary setup *)
  let ctx = { ctx with Context.cache = None } in
  let sol = Model.solve_chain ~ctx ~hierarchy:(fun () -> Model.hierarchy model) chain in
  (mean_of_rate (rate model ~pi:sol.Markov.Solution.pi), sol)

let mean_first_slip_time ?ctx model = fst (first_slip ?ctx model)
