let max_direct_size = 512

(* Standard GTH: eliminate states n-1 .. 1, folding each eliminated state's
   transition mass onto the remaining states, then back-substitute. Division
   is by the *off-diagonal row mass* (never by 1 - p_ii), which keeps the
   computation subtraction-free. [a] is the row-major n x n matrix (entry
   (i, j) at [a.(i * n + j)]), overwritten by the elimination. *)
let solve_in_place ~n a ~exit pi =
  if n < 0 || Array.length a < n * n || Array.length exit < n || Array.length pi <> n then
    invalid_arg "Gth.solve_in_place: buffer sizes do not fit n";
  if n > 0 then begin
    (* exit.(k) is the off-diagonal mass of row k in the chain censored on
       {0..k}; the balance equation pi_k * exit_k = inflow_k drives the
       back-substitution *)
    for k = n - 1 downto 1 do
      let rk = k * n in
      let s = ref 0.0 in
      for j = 0 to k - 1 do
        s := !s +. a.(rk + j)
      done;
      if !s <= 0.0 then failwith "Gth: reducible chain (no exit from eliminated block)";
      exit.(k) <- !s;
      for j = 0 to k - 1 do
        a.(rk + j) <- a.(rk + j) /. !s
      done;
      for i = 0 to k - 1 do
        let ri = i * n in
        let pik = a.(ri + k) in
        if pik > 0.0 then
          for j = 0 to k - 1 do
            a.(ri + j) <- a.(ri + j) +. (pik *. a.(rk + j))
          done
      done
    done;
    pi.(0) <- 1.0;
    for k = 1 to n - 1 do
      let acc = ref 0.0 in
      for i = 0 to k - 1 do
        acc := !acc +. (pi.(i) *. a.((i * n) + k))
      done;
      pi.(k) <- !acc /. exit.(k)
    done;
    let total = Linalg.Vec.sum pi in
    Linalg.Vec.scale_in_place (1.0 /. total) pi
  end

let solve_dense p0 =
  let n = Linalg.Mat.rows p0 in
  if Linalg.Mat.cols p0 <> n then invalid_arg "Gth.solve_dense: matrix not square";
  let a = Array.init (n * n) (fun idx -> Linalg.Mat.get p0 (idx / n) (idx mod n)) in
  let pi = Array.make n 0.0 in
  solve_in_place ~n a ~exit:(Array.make n 1.0) pi;
  pi

let solve ?trace chain =
  let pi = solve_dense (Sparse.Csr.to_dense (Chain.tpm chain)) in
  (match trace with
  | Some t -> Cdr_obs.Trace.record t ~iter:1 ~residual:(Chain.residual chain pi)
  | None -> ());
  pi
