(* Unit and property tests for pmfs, Gaussian utilities, jitter models and
   the PRNG. *)

let check_float ?(eps = 1e-12) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ---------- Pmf ---------- *)

let test_pmf_normalizes () =
  let p = Prob.Pmf.create [ (0, 2.0); (1, 2.0) ] in
  check_float "half" 0.5 (Prob.Pmf.prob p 0);
  check_float "absent" 0.0 (Prob.Pmf.prob p 7)

let test_pmf_merges_duplicates () =
  let p = Prob.Pmf.create [ (3, 1.0); (3, 1.0); (5, 2.0) ] in
  Alcotest.(check int) "two atoms" 2 (Prob.Pmf.cardinal p);
  check_float "merged" 0.5 (Prob.Pmf.prob p 3)

let test_pmf_rejects_bad_weights () =
  Alcotest.check_raises "negative" (Invalid_argument "Pmf.create: invalid weight -1 for label 0")
    (fun () -> ignore (Prob.Pmf.create [ (0, -1.0) ]));
  Alcotest.check_raises "all zero" (Invalid_argument "Pmf.create: total weight is zero") (fun () ->
      ignore (Prob.Pmf.create [ (0, 0.0) ]))

let test_pmf_moments () =
  let p = Prob.Pmf.bernoulli ~p:0.25 1 0 in
  check_float "mean" 0.25 (Prob.Pmf.mean p);
  check_float "variance" (0.25 *. 0.75) (Prob.Pmf.variance p)

let test_pmf_convolve () =
  (* sum of two fair coins: binomial(2, 1/2) *)
  let coin = Prob.Pmf.uniform [ 0; 1 ] in
  let s = Prob.Pmf.convolve coin coin in
  check_float "p(0)" 0.25 (Prob.Pmf.prob s 0);
  check_float "p(1)" 0.5 (Prob.Pmf.prob s 1);
  check_float "p(2)" 0.25 (Prob.Pmf.prob s 2)

let test_pmf_map_labels_collision () =
  let p = Prob.Pmf.uniform [ -1; 1 ] in
  let folded = Prob.Pmf.map_labels abs p in
  Alcotest.(check int) "collapsed" 1 (Prob.Pmf.cardinal folded);
  check_float "all mass" 1.0 (Prob.Pmf.prob folded 1)

let test_pmf_cdf_tail () =
  let p = Prob.Pmf.uniform [ 1; 2; 3; 4 ] in
  check_float "cdf" 0.5 (Prob.Pmf.cdf_le p 2);
  check_float "tail" 0.25 (1.0 -. Prob.Pmf.cdf_le p 3)

(* ---------- Gaussian ---------- *)

let test_erf_known_values () =
  (* reference values from Abramowitz & Stegun *)
  check_float ~eps:1e-12 "erf(0)" 0.0 (Prob.Gaussian.erf 0.0);
  check_float ~eps:1e-10 "erf(1)" 0.8427007929497149 (Prob.Gaussian.erf 1.0);
  check_float ~eps:1e-10 "erf(2)" 0.9953222650189527 (Prob.Gaussian.erf 2.0);
  check_float ~eps:1e-10 "erfc(3)" 2.209049699858544e-5 (Prob.Gaussian.erfc 3.0)

let test_erfc_deep_tail () =
  (* deep tail must stay accurate in *relative* terms: Q(10), Q(20) *)
  let q10 = Prob.Gaussian.q 10.0 in
  let reference = 7.619853024160527e-24 in
  Alcotest.(check bool) "Q(10) relative error < 1e-10" true
    (abs_float ((q10 -. reference) /. reference) < 1e-10);
  let q20 = Prob.Gaussian.q 20.0 in
  let reference20 = 2.7536241186062337e-89 in
  Alcotest.(check bool) "Q(20) relative error < 1e-10" true
    (abs_float ((q20 -. reference20) /. reference20) < 1e-10)

let test_erfc_symmetry () =
  check_float ~eps:1e-12 "erfc(-x) = 2 - erfc(x)" 2.0
    (Prob.Gaussian.erfc 1.3 +. Prob.Gaussian.erfc (-1.3))

let test_gaussian_cdf () =
  check_float ~eps:1e-12 "median" 0.5 (Prob.Gaussian.cdf ~mean:2.0 ~sigma:3.0 2.0);
  check_float ~eps:1e-10 "one sigma" 0.8413447460685429 (Prob.Gaussian.cdf ~mean:0.0 ~sigma:1.0 1.0)

let test_tail_beyond () =
  check_float ~eps:1e-10 "two-sided sigma" (2.0 *. Prob.Gaussian.q 1.0)
    (Prob.Gaussian.tail_beyond ~sigma:0.5 0.5);
  check_float "sigma=0 inside" 0.0 (Prob.Gaussian.tail_beyond ~sigma:0.0 0.1)

let test_discretize_mass_and_moments () =
  let pmf = Prob.Gaussian.discretize ~sigma:1.0 ~step:0.05 () in
  let mass = Prob.Pmf.fold pmf ~init:0.0 ~f:(fun a _ w -> a +. w) in
  check_float ~eps:1e-12 "mass 1" 1.0 mass;
  check_float ~eps:1e-9 "mean 0" 0.0 (Prob.Pmf.mean pmf);
  (* variance in physical units: label^2 * step^2 *)
  let var = Prob.Pmf.variance pmf *. 0.05 *. 0.05 in
  Alcotest.(check bool) "variance close to 1" true (abs_float (var -. 1.0) < 0.01)

let test_discretize_zero_sigma () =
  let pmf = Prob.Gaussian.discretize ~sigma:0.0 ~step:0.1 () in
  check_float "point mass" 1.0 (Prob.Pmf.prob pmf 0)

(* ---------- Jitter ---------- *)

let test_drift_mean () =
  let p = Prob.Jitter.drift ~max_steps:3 ~mean_steps:0.2 () in
  check_float ~eps:1e-12 "mean" 0.2 (Prob.Pmf.mean p);
  Alcotest.(check int) "bounded" 3 (Prob.Pmf.max_support p);
  Alcotest.(check int) "non-negative" 0 (Prob.Pmf.min_support p)

let test_drift_shapes () =
  List.iter
    (fun shape ->
      let p = Prob.Jitter.drift ~max_steps:4 ~mean_steps:0.5 ~shape () in
      check_float ~eps:1e-12 "mean preserved" 0.5 (Prob.Pmf.mean p))
    [ `Peaked; `Uniform; `Ramp ]

let test_drift_degenerate () =
  let p = Prob.Jitter.drift ~max_steps:0 ~mean_steps:0.0 () in
  check_float "point" 1.0 (Prob.Pmf.prob p 0)

let test_drift_unreachable_mean () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Prob.Jitter.drift ~max_steps:2 ~mean_steps:1.9 ());
       false
     with Invalid_argument _ -> true)

let test_wander_rms () =
  let p = Prob.Jitter.symmetric_wander ~max_steps:4 ~rms_steps:1.0 in
  check_float ~eps:1e-12 "zero mean" 0.0 (Prob.Pmf.mean p);
  check_float ~eps:1e-9 "rms" 1.0 (sqrt (Prob.Pmf.variance p))

let test_sinusoidal_arcsine () =
  let p = Prob.Jitter.sinusoidal_equivalent ~amplitude_steps:10 in
  check_float ~eps:1e-12 "zero mean" 0.0 (Prob.Pmf.mean p);
  (* arcsine law piles mass at the edges *)
  Alcotest.(check bool) "edges heavier than center" true
    (Prob.Pmf.prob p 10 > Prob.Pmf.prob p 0)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Prob.Rng.create ~seed:42L and b = Prob.Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prob.Rng.bits64 a) (Prob.Rng.bits64 b)
  done

let test_rng_float_range () =
  let rng = Prob.Rng.create ~seed:7L in
  for _ = 1 to 1000 do
    let u = Prob.Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_rng_int_bounds () =
  let rng = Prob.Rng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Prob.Rng.int rng ~bound:13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done;
  Alcotest.check_raises "non-positive" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Prob.Rng.int rng ~bound:0))

let test_rng_gaussian_moments () =
  let rng = Prob.Rng.create ~seed:11L in
  let n = 200_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Prob.Rng.gaussian rng ~mean:1.0 ~sigma:2.0 in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 1" true (abs_float (mean -. 1.0) < 0.03);
  Alcotest.(check bool) "var ~ 4" true (abs_float (var -. 4.0) < 0.1)

let test_rng_pmf_frequencies () =
  let rng = Prob.Rng.create ~seed:3L in
  let pmf = Prob.Pmf.create [ (0, 0.5); (1, 0.3); (2, 0.2) ] in
  let counts = Array.make 3 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Prob.Rng.pmf rng pmf in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun k expected ->
      let freq = float_of_int counts.(k) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "freq of %d" k)
        true
        (abs_float (freq -. expected) < 0.01))
    [| 0.5; 0.3; 0.2 |]

(* ---------- properties ---------- *)

let pmf_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 8 in
  let* entries =
    list_size (return n)
      (pair (int_range (-20) 20) (float_range 0.01 5.0))
  in
  return (Prob.Pmf.create entries)

let prop_convolve_mean_additive =
  let gen = QCheck2.Gen.pair pmf_gen pmf_gen in
  QCheck2.Test.make ~name:"pmf: mean of convolution adds" ~count:200 gen (fun (a, b) ->
      let s = Prob.Pmf.convolve a b in
      abs_float (Prob.Pmf.mean s -. (Prob.Pmf.mean a +. Prob.Pmf.mean b)) < 1e-9)

let prop_convolve_variance_additive =
  let gen = QCheck2.Gen.pair pmf_gen pmf_gen in
  QCheck2.Test.make ~name:"pmf: variance of convolution adds" ~count:200 gen (fun (a, b) ->
      let s = Prob.Pmf.convolve a b in
      abs_float (Prob.Pmf.variance s -. (Prob.Pmf.variance a +. Prob.Pmf.variance b)) < 1e-7)

let prop_cdf_monotone =
  QCheck2.Test.make ~name:"pmf: cdf monotone, ends at 1" ~count:200 pmf_gen (fun p ->
      let lo = Prob.Pmf.min_support p and hi = Prob.Pmf.max_support p in
      let ok = ref (abs_float (Prob.Pmf.cdf_le p hi -. 1.0) < 1e-12) in
      for x = lo to hi - 1 do
        if Prob.Pmf.cdf_le p x > Prob.Pmf.cdf_le p (x + 1) +. 1e-12 then ok := false
      done;
      !ok)

let prop_erfc_decreasing =
  QCheck2.Test.make ~name:"gaussian: erfc decreasing" ~count:200
    QCheck2.Gen.(pair (float_range (-5.0) 5.0) (float_range 0.001 2.0))
    (fun (x, dx) -> Prob.Gaussian.erfc (x +. dx) <= Prob.Gaussian.erfc x +. 1e-15)

let () =
  Alcotest.run "prob"
    [
      ( "pmf",
        [
          Alcotest.test_case "normalizes" `Quick test_pmf_normalizes;
          Alcotest.test_case "merges duplicates" `Quick test_pmf_merges_duplicates;
          Alcotest.test_case "rejects bad weights" `Quick test_pmf_rejects_bad_weights;
          Alcotest.test_case "moments" `Quick test_pmf_moments;
          Alcotest.test_case "convolve" `Quick test_pmf_convolve;
          Alcotest.test_case "map_labels collision" `Quick test_pmf_map_labels_collision;
          Alcotest.test_case "cdf/tail" `Quick test_pmf_cdf_tail;
        ] );
      ( "gaussian",
        [
          Alcotest.test_case "erf known values" `Quick test_erf_known_values;
          Alcotest.test_case "deep tail relative accuracy" `Quick test_erfc_deep_tail;
          Alcotest.test_case "erfc symmetry" `Quick test_erfc_symmetry;
          Alcotest.test_case "cdf" `Quick test_gaussian_cdf;
          Alcotest.test_case "tail_beyond" `Quick test_tail_beyond;
          Alcotest.test_case "discretize mass/moments" `Quick test_discretize_mass_and_moments;
          Alcotest.test_case "discretize sigma=0" `Quick test_discretize_zero_sigma;
        ] );
      ( "jitter",
        [
          Alcotest.test_case "drift mean" `Quick test_drift_mean;
          Alcotest.test_case "drift shapes" `Quick test_drift_shapes;
          Alcotest.test_case "drift degenerate" `Quick test_drift_degenerate;
          Alcotest.test_case "drift unreachable mean" `Quick test_drift_unreachable_mean;
          Alcotest.test_case "wander rms" `Quick test_wander_rms;
          Alcotest.test_case "sinusoidal arcsine" `Quick test_sinusoidal_arcsine;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "pmf frequencies" `Slow test_rng_pmf_frequencies;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_convolve_mean_additive;
            prop_convolve_variance_additive;
            prop_cdf_monotone;
            prop_erfc_decreasing;
          ] );
    ]
