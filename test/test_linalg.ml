(* Unit and property tests for the dense linear-algebra substrate. *)

let check_float ?(eps = 1e-12) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ---------- Vec ---------- *)

let test_vec_create_dim () =
  let v = Linalg.Vec.create 5 in
  Alcotest.(check int) "dim" 5 (Linalg.Vec.dim v);
  Alcotest.(check bool) "zeros" true (Array.for_all (fun x -> x = 0.0) v)

let test_kahan_sum () =
  (* adding 1e-8 a hundred million times to 1.0: naive summation drifts,
     Kahan stays exact to ~1 ulp *)
  let n = 1_000_000 in
  let v = Array.make (n + 1) 1e-8 in
  v.(0) <- 1.0;
  check_float ~eps:1e-12 "compensated" (1.0 +. (float_of_int n *. 1e-8)) (Linalg.Vec.sum v)

let test_normalize_l1 () =
  let v = [| 1.0; 3.0 |] in
  Linalg.Vec.normalize_l1 v;
  check_float "first" 0.25 v.(0);
  check_float "second" 0.75 v.(1);
  Alcotest.check_raises "zero vector" (Invalid_argument "Vec.normalize_l1: zero or non-finite entry sum")
    (fun () -> Linalg.Vec.normalize_l1 [| 0.0; 0.0 |])

let test_dist_l1 () =
  check_float "dist" 3.0 (Linalg.Vec.dist_l1 [| 1.0; 2.0 |] [| 2.0; 0.0 |])

(* ---------- Mat ---------- *)

let test_mat_identity_mul () =
  let a = Linalg.Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let i = Linalg.Mat.identity 2 in
  Alcotest.(check bool) "A*I = A" true (Linalg.Mat.equal (Linalg.Mat.mul a i) a);
  Alcotest.(check bool) "I*A = A" true (Linalg.Mat.equal (Linalg.Mat.mul i a) a)

let test_mat_mul_known () =
  let a = Linalg.Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Linalg.Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Linalg.Mat.mul a b in
  check_float "c00" 19.0 (Linalg.Mat.get c 0 0);
  check_float "c11" 50.0 (Linalg.Mat.get c 1 1)

let test_mat_transpose () =
  let a = Linalg.Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Linalg.Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Linalg.Mat.rows t);
  check_float "t20" 3.0 (Linalg.Mat.get t 2 0);
  Alcotest.(check bool) "involution" true (Linalg.Mat.equal a (Linalg.Mat.transpose t))

let test_mat_vec () =
  let a = Linalg.Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Linalg.Mat.mul_vec a [| 1.0; 1.0 |] in
  check_float "mul_vec" 3.0 y.(0);
  let z = Linalg.Mat.vec_mul [| 1.0; 1.0 |] a in
  check_float "vec_mul" 4.0 z.(0);
  check_float "vec_mul" 6.0 z.(1)

let test_mat_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_arrays: ragged rows") (fun () ->
      ignore (Linalg.Mat.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

(* ---------- Fft ---------- *)

let test_fft_delta () =
  (* DFT of a unit impulse is flat *)
  let re = [| 1.0; 0.0; 0.0; 0.0 |] and im = Array.make 4 0.0 in
  Linalg.Fft.transform ~re ~im;
  Array.iter (fun v -> check_float "flat re" 1.0 v) re;
  Array.iter (fun v -> check_float "flat im" 0.0 v) im

let test_fft_cosine_bin () =
  (* a pure cosine at bin 1 of length 8 transforms to two spikes of N/2 *)
  let n = 8 in
  let re = Array.init n (fun k -> cos (2.0 *. Float.pi *. float_of_int k /. float_of_int n)) in
  let im = Array.make n 0.0 in
  Linalg.Fft.transform ~re ~im;
  check_float ~eps:1e-10 "bin 1" 4.0 re.(1);
  check_float ~eps:1e-10 "bin 7" 4.0 re.(7);
  check_float ~eps:1e-10 "bin 0" 0.0 re.(0);
  check_float ~eps:1e-10 "bin 2" 0.0 re.(2)

let test_fft_roundtrip () =
  let n = 16 in
  let re = Array.init n (fun k -> sin (0.3 *. float_of_int k) +. (0.1 *. float_of_int k)) in
  let im = Array.init n (fun k -> cos (0.7 *. float_of_int k)) in
  let re0 = Array.copy re and im0 = Array.copy im in
  Linalg.Fft.transform ~re ~im;
  Linalg.Fft.inverse ~re ~im;
  check_float ~eps:1e-10 "re roundtrip" 0.0 (Linalg.Vec.dist_l1 re re0);
  check_float ~eps:1e-10 "im roundtrip" 0.0 (Linalg.Vec.dist_l1 im im0)

let test_fft_parseval () =
  let n = 32 in
  let x = Array.init n (fun k -> sin (1.1 *. float_of_int k) *. exp (-0.05 *. float_of_int k)) in
  let time_energy = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x in
  let re = Array.copy x and im = Array.make n 0.0 in
  Linalg.Fft.transform ~re ~im;
  let freq_energy = ref 0.0 in
  for k = 0 to n - 1 do
    freq_energy := !freq_energy +. (((re.(k) *. re.(k)) +. (im.(k) *. im.(k))) /. float_of_int n)
  done;
  check_float ~eps:1e-10 "parseval" time_energy !freq_energy

let test_fft_validation () =
  Alcotest.(check bool) "non power of two" true
    (try
       Linalg.Fft.transform ~re:(Array.make 6 0.0) ~im:(Array.make 6 0.0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "next pow2" 16 (Linalg.Fft.next_power_of_two 9);
  Alcotest.(check bool) "pow2 check" true (Linalg.Fft.is_power_of_two 64);
  Alcotest.(check bool) "pow2 check" false (Linalg.Fft.is_power_of_two 48)

(* ---------- properties ---------- *)

let prop_fft_linearity =
  let gen =
    let open QCheck2.Gen in
    let* logn = int_range 1 5 in
    let n = 1 lsl logn in
    let* x = array_size (return n) (float_range (-2.0) 2.0) in
    let* y = array_size (return n) (float_range (-2.0) 2.0) in
    let* a = float_range (-3.0) 3.0 in
    return (x, y, a)
  in
  QCheck2.Test.make ~name:"fft: linearity F(a x + y) = a F(x) + F(y)" ~count:100 gen
    (fun (x, y, a) ->
      let n = Array.length x in
      let combo_re = Array.init n (fun i -> (a *. x.(i)) +. y.(i)) in
      let combo_im = Array.make n 0.0 in
      Linalg.Fft.transform ~re:combo_re ~im:combo_im;
      let xr = Array.copy x and xi = Array.make n 0.0 in
      Linalg.Fft.transform ~re:xr ~im:xi;
      let yr = Array.copy y and yi = Array.make n 0.0 in
      Linalg.Fft.transform ~re:yr ~im:yi;
      let ok = ref true in
      for k = 0 to n - 1 do
        if
          abs_float (combo_re.(k) -. ((a *. xr.(k)) +. yr.(k))) > 1e-8
          || abs_float (combo_im.(k) -. ((a *. xi.(k)) +. yi.(k))) > 1e-8
        then ok := false
      done;
      !ok)

let prop_transpose_involution =
  let gen =
    let open QCheck2.Gen in
    let* rows = int_range 1 8 in
    let* cols = int_range 1 8 in
    let* entries = array_size (return (rows * cols)) (float_range (-5.0) 5.0) in
    return (Linalg.Mat.init ~rows ~cols (fun i j -> entries.((i * cols) + j)))
  in
  QCheck2.Test.make ~name:"mat: transpose involution" ~count:200 gen (fun a ->
      Linalg.Mat.equal a (Linalg.Mat.transpose (Linalg.Mat.transpose a)))

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "create/dim" `Quick test_vec_create_dim;
          Alcotest.test_case "kahan sum" `Quick test_kahan_sum;
          Alcotest.test_case "normalize_l1" `Quick test_normalize_l1;
          Alcotest.test_case "dist_l1" `Quick test_dist_l1;
        ] );
      ( "mat",
        [
          Alcotest.test_case "identity mul" `Quick test_mat_identity_mul;
          Alcotest.test_case "mul known" `Quick test_mat_mul_known;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "mat-vec products" `Quick test_mat_vec;
          Alcotest.test_case "ragged rejected" `Quick test_mat_ragged;
        ] );
      ( "fft",
        [
          Alcotest.test_case "impulse" `Quick test_fft_delta;
          Alcotest.test_case "cosine bin" `Quick test_fft_cosine_bin;
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "parseval" `Quick test_fft_parseval;
          Alcotest.test_case "validation" `Quick test_fft_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_transpose_involution; prop_fft_linearity ] );
    ]
