type white = { sigma : float }

(* Find a two-parameter family with the requested mean: mass [1 - a] at 0 and
   a tail of total mass [a] over [1..max] with the given profile; [a] is
   solved from the mean. *)
let drift ~max_steps ~mean_steps ?(shape = `Peaked) () =
  if max_steps < 0 then invalid_arg "Jitter.drift: negative max_steps";
  if mean_steps < 0.0 || mean_steps > float_of_int max_steps then
    invalid_arg "Jitter.drift: mean_steps out of [0, max_steps]";
  if max_steps = 0 || mean_steps = 0.0 then Pmf.point 0
  else begin
    let profile k =
      match shape with
      | `Peaked -> 1.0 /. (float_of_int k *. float_of_int k)
      | `Uniform -> 1.0
      | `Ramp -> float_of_int (max_steps + 1 - k)
    in
    let weights = Array.init max_steps (fun i -> profile (i + 1)) in
    let mass = Array.fold_left ( +. ) 0.0 weights in
    let first_moment = ref 0.0 in
    Array.iteri (fun i w -> first_moment := !first_moment +. (float_of_int (i + 1) *. w)) weights;
    (* tail scaled to a total a gives mean a * first_moment / mass *)
    let a = mean_steps *. mass /. !first_moment in
    if a > 1.0 then
      invalid_arg "Jitter.drift: mean_steps too large for this shape (tail mass would exceed 1)";
    let entries = ref [ (0, 1.0 -. a) ] in
    Array.iteri (fun i w -> entries := (i + 1, a *. w /. mass) :: !entries) weights;
    Pmf.create !entries
  end

let max_wander_rms ~max_steps =
  if max_steps <= 0 then invalid_arg "Jitter.max_wander_rms: max_steps must be positive";
  let second = ref 0.0 and mass = ref 0.0 in
  for k = 1 to max_steps do
    let w = float_of_int (max_steps - k + 1) in
    second := !second +. (2.0 *. w *. float_of_int (k * k));
    mass := !mass +. (2.0 *. w)
  done;
  sqrt (!second /. !mass)

let symmetric_wander ~max_steps ~rms_steps =
  if max_steps <= 0 then invalid_arg "Jitter.symmetric_wander: max_steps must be positive";
  if rms_steps < 0.0 || rms_steps > float_of_int max_steps then
    invalid_arg "Jitter.symmetric_wander: rms out of range";
  if rms_steps = 0.0 then Pmf.point 0
  else begin
    (* mass a split evenly over +-k for k = 1..max with triangular decay,
       scaled so the second moment matches rms^2 *)
    let weights = Array.init max_steps (fun i -> float_of_int (max_steps - i)) in
    let second_moment = ref 0.0 and mass = ref 0.0 in
    Array.iteri
      (fun i w ->
        let k = float_of_int (i + 1) in
        second_moment := !second_moment +. (2.0 *. w *. k *. k);
        mass := !mass +. (2.0 *. w))
      weights;
    let a = rms_steps *. rms_steps *. !mass /. !second_moment in
    if a > 1.0 then invalid_arg "Jitter.symmetric_wander: rms too large for this support";
    let entries = ref [ (0, 1.0 -. a) ] in
    Array.iteri
      (fun i w ->
        let p = a *. w /. !mass in
        entries := (i + 1, p) :: (-(i + 1), p) :: !entries)
      weights;
    Pmf.create !entries
  end

let sinusoidal_equivalent ~amplitude_steps =
  if amplitude_steps <= 0 then invalid_arg "Jitter.sinusoidal_equivalent: non-positive amplitude";
  let amp = float_of_int amplitude_steps in
  (* P(X in [lo, hi]) for X = amp * sin(U), U uniform: arcsine law *)
  let cdf x =
    let x = Float.max (-.amp) (Float.min amp x) in
    (asin (x /. amp) /. Float.pi) +. 0.5
  in
  let entries = ref [] in
  for k = -amplitude_steps to amplitude_steps do
    let lo = float_of_int k -. 0.5 and hi = float_of_int k +. 0.5 in
    let p = cdf hi -. cdf lo in
    if p > 0.0 then entries := (k, p) :: !entries
  done;
  Pmf.create !entries
