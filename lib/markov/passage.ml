exception Not_converged of { sweeps : int; delta : float }

let check_nonempty name pred n =
  let found = ref false in
  for i = 0 to n - 1 do
    if pred i then found := true
  done;
  if not !found then invalid_arg ("Passage: empty " ^ name ^ " set")

(* Gauss-Seidel for m = 1 + Q m restricted to non-target states, accelerated
   with per-state Aitken extrapolation: when the event is rare the iteration
   matrix has spectral radius 1 - rate, so plain sweeps need ~1/rate
   iterations; once the dominant mode has purified, the corrections decay
   geometrically with a ratio r that is cheap to estimate, so the remaining
   correction is (m_k - m_{k-1}) r / (1 - r) per state. *)
let mean_hitting_times ?(tol = 1e-6) ?(max_iter = 500_000) chain ~target =
  let n = Chain.n_states chain in
  check_nonempty "target" target n;
  let p = Chain.tpm chain in
  let m = Array.make n 0.0 in
  let prev = Array.make n 0.0 in
  let is_target = Array.init n target in
  let sweep () =
    for i = 0 to n - 1 do
      if not is_target.(i) then begin
        let acc = ref 1.0 and self = ref 0.0 in
        Sparse.Csr.iter_row p i (fun j v ->
            if j = i then self := v else if not is_target.(j) then acc := !acc +. (v *. m.(j)));
        let denom = 1.0 -. !self in
        m.(i) <- (if denom <= 0.0 then Float.infinity else !acc /. denom)
      end
    done
  in
  let max_delta () =
    let d = ref 0.0 in
    for i = 0 to n - 1 do
      let di = abs_float (m.(i) -. prev.(i)) in
      if Float.is_finite di then d := Float.max !d di else d := Float.infinity
    done;
    !d
  in
  (* Aitken candidates are formed *out of place*: the Gauss-Seidel iterate
     itself is never touched, so its corrections keep decaying cleanly at the
     dominant rate and the ratio estimate purifies window after window. Two
     successive candidates agreeing (relatively) is the stopping rule — a
     sound one because the candidate error is driven by the ratio estimate,
     which improves geometrically with the spectral gap. *)
  let window = 50 in
  let candidate = Array.make n 0.0 in
  let previous_candidate = Array.make n Float.nan in
  let have_candidate = ref false in
  let agreements = ref 0 in
  let finished = ref false in
  let k = ref 0 in
  let last_delta = ref Float.infinity in
  while (not !finished) && !k < max_iter do
    Array.blit m 0 prev 0 n;
    sweep ();
    incr k;
    let delta = max_delta () in
    last_delta := delta;
    if delta <= tol then finished := true (* plain convergence (fast chains) *)
    else if !k mod window = 0 && Float.is_finite delta && delta > 0.0 then begin
      (* ratio from the freshest pair of sweeps: purest dominant mode *)
      Array.blit m 0 candidate 0 n;
      (* one more sweep to get (m_k, m_{k+1}) *)
      Array.blit m 0 prev 0 n;
      sweep ();
      incr k;
      let delta2 = max_delta () in
      let r = if delta > 0.0 then delta2 /. delta else 1.0 in
      if r > 0.0 && r < 1.0 then begin
        let factor = r /. (1.0 -. r) in
        let worst = ref 0.0 in
        for i = 0 to n - 1 do
          if not is_target.(i) then begin
            let extrapolated =
              if Float.is_finite m.(i) then Float.max 0.0 (m.(i) +. ((m.(i) -. prev.(i)) *. factor))
              else m.(i)
            in
            if !have_candidate && Float.is_finite extrapolated then
              worst :=
                Float.max !worst
                  (abs_float (extrapolated -. previous_candidate.(i))
                  /. (1.0 +. abs_float extrapolated));
            candidate.(i) <- extrapolated
          end
          else candidate.(i) <- 0.0
        done;
        if !have_candidate && !worst <= tol then begin
          incr agreements;
          (* two consecutive agreeing windows guard against a premature match
             while the dominant mode is still contaminated *)
          if !agreements >= 2 then begin
            Array.blit candidate 0 m 0 n;
            finished := true
          end
          else begin
            Array.blit candidate 0 previous_candidate 0 n;
            have_candidate := true
          end
        end
        else begin
          agreements := 0;
          Array.blit candidate 0 previous_candidate 0 n;
          have_candidate := true
        end
      end
    end
  done;
  if not !finished then raise (Not_converged { sweeps = !k; delta = !last_delta });
  m

let flux op ~pi ~crossing =
  if Array.length pi <> Cdr_op.dim op then invalid_arg "Passage.flux: dimension mismatch";
  let acc = ref 0.0 in
  Cdr_op.iter_entries op (fun i j v -> if crossing i j then acc := !acc +. (pi.(i) *. v));
  !acc
