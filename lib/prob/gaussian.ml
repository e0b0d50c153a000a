(* erfc via the two classic regimes:
   - |x| <= 2.0 : Taylor/Maclaurin series of erf (fast converging there);
   - |x| >  2.0 : Lentz-evaluated continued fraction for erfc, which stays
     accurate in the deep tail where the series cancels catastrophically. *)

let sqrt_pi = 1.7724538509055160273

let erf_series x =
  (* erf(x) = 2/sqrt(pi) * exp(-x^2) * sum_{n>=0} 2^n x^(2n+1) / (1*3*...*(2n+1)) *)
  let x2 = x *. x in
  let rec loop n term acc =
    if abs_float term < 1e-18 *. abs_float acc || n > 200 then acc
    else
      let term = term *. 2.0 *. x2 /. float_of_int ((2 * n) + 1) in
      loop (n + 1) term (acc +. term)
  in
  let first = x in
  2.0 /. sqrt_pi *. exp (-.x2) *. loop 1 first first

let erfc_cf x =
  (* erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/2/(x + 1/(x + 3/2/(x + ...)))) for x > 0,
     evaluated with the modified Lentz algorithm. *)
  let tiny = 1e-300 in
  let b0 = x in
  let f = ref (if b0 = 0.0 then tiny else b0) in
  let c = ref !f and d = ref 0.0 in
  let continue_ = ref true in
  let n = ref 1 in
  while !continue_ && !n < 500 do
    let a = float_of_int !n /. 2.0 in
    let b = x in
    d := b +. (a *. !d);
    if !d = 0.0 then d := tiny;
    c := b +. (a /. !c);
    if !c = 0.0 then c := tiny;
    d := 1.0 /. !d;
    let delta = !c *. !d in
    f := !f *. delta;
    if abs_float (delta -. 1.0) < 1e-17 then continue_ := false;
    incr n
  done;
  exp (-.(x *. x)) /. sqrt_pi /. !f

let erfc x =
  if Float.is_nan x then Float.nan
  else if x > 27.0 then 0.0 (* below the smallest positive double anyway at ~27.2 *)
  else if x < -6.0 then 2.0
  else if x >= 2.0 then erfc_cf x
  else if x <= -2.0 then 2.0 -. erfc_cf (-.x)
  else 1.0 -. erf_series x

let erf x = if abs_float x < 2.0 then erf_series x else 1.0 -. erfc x

let sqrt2 = 1.4142135623730950488

let cdf ~mean ~sigma x =
  if sigma <= 0.0 then invalid_arg "Gaussian.cdf: sigma must be positive";
  0.5 *. erfc (-.(x -. mean) /. (sigma *. sqrt2))

let q x = 0.5 *. erfc (x /. sqrt2)

let tail_beyond ~sigma x =
  if x < 0.0 then invalid_arg "Gaussian.tail_beyond: negative threshold";
  if sigma <= 0.0 then if x > 0.0 then 0.0 else 1.0 else 2.0 *. q (x /. sigma)

let discretize ~sigma ~step ?(n_sigmas = 6.0) () =
  if step <= 0.0 then invalid_arg "Gaussian.discretize: step must be positive";
  if sigma < 0.0 then invalid_arg "Gaussian.discretize: negative sigma";
  if sigma = 0.0 then Pmf.point 0
  else begin
    let kmax = max 1 (int_of_float (ceil (n_sigmas *. sigma /. step))) in
    let mass k =
      let lo = (float_of_int k -. 0.5) *. step and hi = (float_of_int k +. 0.5) *. step in
      cdf ~mean:0.0 ~sigma hi -. cdf ~mean:0.0 ~sigma lo
    in
    let entries = ref [] in
    for k = -kmax to kmax do
      entries := (k, mass k) :: !entries
    done;
    Pmf.create !entries
  end
