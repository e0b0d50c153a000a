(* The operator-generic iteration. [Chain]-based [solve] routes through this
   with a CSR backend whose step kernel is the exact [Csr.vec_mul_into] call
   [Chain.step_into] made before the abstraction existed — same init, same
   per-iteration arithmetic, same final residual measurement, so the refactor
   changes no result bits. *)
let solve_op ?(tol = 1e-12) ?(max_iter = 100_000) ?init ?trace ?pool op =
  let n = Cdr_op.dim op in
  let pi =
    ref
      (match init with
      | Some v -> Linalg.Vec.copy v
      | None -> Array.make n (1.0 /. float_of_int n))
  in
  Linalg.Vec.normalize_l1 !pi;
  let next = Linalg.Vec.create n in
  let scratch = ref next in
  let iterations = ref 0 in
  let continue_ = ref (n > 0) in
  while !continue_ && !iterations < max_iter do
    Cdr_op.vec_mul_into ?pool op !pi !scratch;
    Linalg.Vec.normalize_l1 !scratch;
    let diff = Linalg.Vec.dist_l1 !scratch !pi in
    let tmp = !pi in
    pi := !scratch;
    scratch := tmp;
    incr iterations;
    (match trace with
    | Some t -> Cdr_obs.Trace.record t ~iter:!iterations ~residual:diff
    | None -> ());
    if diff <= tol then continue_ := false
  done;
  let residual pi =
    let y = Linalg.Vec.create n in
    Cdr_op.vec_mul_into op pi y;
    Linalg.Vec.dist_l1 y pi
  in
  Solution.make_residual ~residual ~pi:!pi ~iterations:!iterations ~tol

let solve ?tol ?max_iter ?init ?trace ?pool chain =
  solve_op ?tol ?max_iter ?init ?trace ?pool (Cdr_op.Csr_backend.create (Chain.tpm chain))
