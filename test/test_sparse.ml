(* Unit and property tests for the sparse-matrix substrate. *)

let check_float ?(eps = 1e-12) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let dense_of_list rows cols entries =
  let a = Linalg.Mat.create ~rows ~cols in
  List.iter (fun (i, j, v) -> Linalg.Mat.set a i j v) entries;
  a

(* ---------- Coo ---------- *)

let test_coo_duplicates_merge () =
  let acc = Sparse.Coo.create ~rows:2 ~cols:2 in
  Sparse.Coo.add acc ~row:0 ~col:1 0.25;
  Sparse.Coo.add acc ~row:0 ~col:1 0.25;
  Sparse.Coo.add acc ~row:1 ~col:0 1.0;
  let m = Sparse.Coo.to_csr acc in
  Alcotest.(check int) "nnz after merge" 2 (Sparse.Csr.nnz m);
  check_float "merged value" 0.5 (Sparse.Csr.get m 0 1)

let test_coo_zero_cancellation () =
  let acc = Sparse.Coo.create ~rows:1 ~cols:1 in
  Sparse.Coo.add acc ~row:0 ~col:0 1.0;
  Sparse.Coo.add acc ~row:0 ~col:0 (-1.0);
  let m = Sparse.Coo.to_csr acc in
  Alcotest.(check int) "cancelled entry dropped" 0 (Sparse.Csr.nnz m)

let test_coo_bounds () =
  let acc = Sparse.Coo.create ~rows:2 ~cols:2 in
  Alcotest.check_raises "row out of bounds" (Invalid_argument "Coo.add: (2,0) out of 2x2")
    (fun () -> Sparse.Coo.add acc ~row:2 ~col:0 1.0)

let test_coo_growth () =
  let acc = Sparse.Coo.create ~rows:10 ~cols:10 in
  for k = 0 to 99 do
    Sparse.Coo.add acc ~row:(k mod 10) ~col:(k / 10) (float_of_int k)
  done;
  Alcotest.(check int) "kept all" 100 (Sparse.Coo.nnz acc);
  let m = Sparse.Coo.to_csr acc in
  check_float "spot value" 57.0 (Sparse.Csr.get m 7 5)

(* ---------- Csr ---------- *)

let sample_csr () =
  Sparse.Csr.of_dense
    (dense_of_list 3 3 [ (0, 0, 1.0); (0, 2, 2.0); (1, 1, 3.0); (2, 0, 4.0); (2, 2, 5.0) ])

let test_csr_roundtrip () =
  let d = dense_of_list 3 4 [ (0, 1, 1.5); (2, 3, -2.0); (1, 0, 7.0) ] in
  let m = Sparse.Csr.of_dense d in
  Alcotest.(check bool) "roundtrip" true (Linalg.Mat.equal d (Sparse.Csr.to_dense m))

let test_csr_get () =
  let m = sample_csr () in
  check_float "present" 2.0 (Sparse.Csr.get m 0 2);
  check_float "absent" 0.0 (Sparse.Csr.get m 0 1);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Csr.get: out of bounds") (fun () ->
      ignore (Sparse.Csr.get m 3 0))

let test_csr_mul_vec () =
  let m = sample_csr () in
  let y = Sparse.Csr.mul_vec m [| 1.0; 1.0; 1.0 |] in
  check_float "row0" 3.0 y.(0);
  check_float "row1" 3.0 y.(1);
  check_float "row2" 9.0 y.(2)

let test_csr_vec_mul () =
  let m = sample_csr () in
  let y = Sparse.Csr.vec_mul [| 1.0; 1.0; 1.0 |] m in
  check_float "col0" 5.0 y.(0);
  check_float "col1" 3.0 y.(1);
  check_float "col2" 7.0 y.(2)

let test_csr_transpose () =
  let m = sample_csr () in
  let t = Sparse.Csr.transpose m in
  check_float "transposed entry" 4.0 (Sparse.Csr.get t 0 2);
  Alcotest.(check bool) "involution" true
    (Sparse.Csr.equal m (Sparse.Csr.transpose t))

let test_csr_row_sums () =
  let sums = Sparse.Csr.row_sums (sample_csr ()) in
  check_float "row2 sum" 9.0 sums.(2)

let test_csr_add () =
  let a = sample_csr () in
  let b = Sparse.Csr.identity 3 in
  let s = Sparse.Csr.add a b in
  check_float "diag" 2.0 (Sparse.Csr.get s 0 0);
  check_float "new diag" 1.0 (Sparse.Csr.get s 1 1 -. 3.0);
  check_float "off-diag untouched" 2.0 (Sparse.Csr.get s 0 2)

let test_csr_invalid_structure () =
  Alcotest.check_raises "unsorted columns"
    (Invalid_argument "Csr: columns not strictly increasing within a row") (fun () ->
      ignore
        (Sparse.Csr.unsafe_make ~rows:1 ~cols:3 ~row_ptr:[| 0; 2 |] ~col_idx:[| 2; 1 |]
           ~values:[| 1.0; 1.0 |]))

(* ---------- Kron ---------- *)

let test_kron_known () =
  (* [[0 1];[1 0]] (x) I2 = permutation of 4 states swapping blocks *)
  let swap = Sparse.Csr.of_dense (dense_of_list 2 2 [ (0, 1, 1.0); (1, 0, 1.0) ]) in
  let k = Sparse.Kron.product swap (Sparse.Csr.identity 2) in
  Alcotest.(check int) "size" 4 (Sparse.Csr.rows k);
  check_float "block swap" 1.0 (Sparse.Csr.get k 0 2);
  check_float "block swap" 1.0 (Sparse.Csr.get k 3 1)

let test_kron_stochastic_closure () =
  (* kron of two stochastic matrices is stochastic *)
  let a = Sparse.Csr.of_dense (dense_of_list 2 2 [ (0, 0, 0.3); (0, 1, 0.7); (1, 0, 1.0) ]) in
  let b =
    Sparse.Csr.of_dense (dense_of_list 3 3 [ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 0.5); (2, 2, 0.5) ])
  in
  let k = Sparse.Kron.product a b in
  Array.iter (fun s -> check_float "row sum" 1.0 s) (Sparse.Csr.row_sums k)

let test_kron_empty_list () =
  Alcotest.check_raises "empty" (Invalid_argument "Kron.product_list: empty list") (fun () ->
      ignore (Sparse.Kron.product_list []))

(* ---------- Kron_op (matrix-free shuffle algorithm) ---------- *)

let stochastic2 p =
  Sparse.Csr.of_dense (dense_of_list 2 2 [ (0, 0, 1.0 -. p); (0, 1, p); (1, 0, p); (1, 1, 1.0 -. p) ])

let test_kron_op_matches_materialized () =
  let a = stochastic2 0.3 and b = stochastic2 0.7 in
  let cyc =
    Sparse.Csr.of_dense (dense_of_list 3 3 [ (0, 1, 1.0); (1, 2, 1.0); (2, 0, 1.0) ])
  in
  let op = Sparse.Kron_op.term [ a; b; cyc ] in
  Alcotest.(check int) "dim" 12 (Sparse.Kron_op.dim op);
  let x = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let via_op = Sparse.Kron_op.apply op x in
  let via_matrix = Sparse.Csr.vec_mul x (Sparse.Kron_op.to_csr op) in
  check_float ~eps:1e-10 "same product" 0.0 (Linalg.Vec.dist_l1 via_op via_matrix)

let test_kron_op_sum () =
  let a = stochastic2 0.3 in
  let i2 = Sparse.Csr.identity 2 in
  (* (1/2)(A (x) I) + (1/2)(I (x) A) is again stochastic *)
  let op =
    Sparse.Kron_op.sum
      [ Sparse.Kron_op.term ~coeff:0.5 [ a; i2 ]; Sparse.Kron_op.term ~coeff:0.5 [ i2; a ] ]
  in
  let x = [| 0.4; 0.3; 0.2; 0.1 |] in
  let y = Sparse.Kron_op.apply op x in
  check_float ~eps:1e-12 "mass preserved" 1.0 (Linalg.Vec.sum y);
  let via_matrix = Sparse.Csr.vec_mul x (Sparse.Kron_op.to_csr op) in
  check_float ~eps:1e-12 "matches matrix" 0.0 (Linalg.Vec.dist_l1 y via_matrix)

let test_kron_op_stationary () =
  (* independent product chain: stationary distribution is the product of
     component stationary distributions *)
  let a = stochastic2 0.3 and b = stochastic2 0.2 in
  let op = Sparse.Kron_op.term [ a; b ] in
  match Sparse.Kron_op.stationary ~tol:1e-13 op with
  | Error msg -> Alcotest.fail msg
  | Ok (pi, _, residual) ->
      Alcotest.(check bool) "converged" true (residual <= 1e-13);
      (* both components are symmetric, so the product is uniform *)
      Array.iter (fun v -> check_float ~eps:1e-10 "uniform" 0.25 v) pi

let test_kron_op_rejects_non_stochastic () =
  let bad = Sparse.Csr.of_dense (dense_of_list 2 2 [ (0, 0, 0.9); (1, 1, 0.9) ]) in
  match Sparse.Kron_op.stationary (Sparse.Kron_op.term [ bad ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rejection of a sub-stochastic operator"

let test_kron_op_validation () =
  Alcotest.(check bool) "empty" true
    (try ignore (Sparse.Kron_op.term []); false with Invalid_argument _ -> true);
  let rect = Sparse.Csr.of_dense (dense_of_list 2 3 [ (0, 0, 1.0) ]) in
  Alcotest.(check bool) "non-square" true
    (try ignore (Sparse.Kron_op.term [ rect ]); false with Invalid_argument _ -> true)

(* ---------- Spy ---------- *)

let test_spy_shapes () =
  let s = Sparse.Spy.render ~width:8 ~height:4 (Sparse.Csr.identity 100) in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "height+trailing" 5 (List.length lines);
  (* identity: diagonal cells non-empty, corners empty *)
  Alcotest.(check bool) "corner empty" true ((List.nth lines 0).[7] = ' ');
  Alcotest.(check bool) "diag marked" true ((List.nth lines 0).[0] <> ' ')

(* ---------- properties ---------- *)

let random_dense_gen =
  let open QCheck2.Gen in
  let* rows = int_range 1 10 in
  let* cols = int_range 1 10 in
  let* entries =
    array_size (return (rows * cols))
      (frequency [ (3, return 0.0); (1, float_range (-5.0) 5.0) ])
  in
  return (Linalg.Mat.init ~rows ~cols (fun i j -> entries.((i * cols) + j)))

let prop_spmv_matches_dense =
  QCheck2.Test.make ~name:"csr: vec_mul/mul_vec match dense" ~count:200 random_dense_gen
    (fun d ->
      let m = Sparse.Csr.of_dense d in
      let x = Array.init (Linalg.Mat.cols d) (fun i -> float_of_int (i + 1)) in
      let xr = Array.init (Linalg.Mat.rows d) (fun i -> float_of_int (i + 1)) in
      let sparse_av = Sparse.Csr.mul_vec m x and dense_av = Linalg.Mat.mul_vec d x in
      let sparse_va = Sparse.Csr.vec_mul xr m and dense_va = Linalg.Mat.vec_mul xr d in
      Linalg.Vec.dist_l1 sparse_av dense_av < 1e-9 && Linalg.Vec.dist_l1 sparse_va dense_va < 1e-9)

let prop_transpose_matches_dense =
  QCheck2.Test.make ~name:"csr: transpose matches dense" ~count:200 random_dense_gen (fun d ->
      let m = Sparse.Csr.of_dense d in
      Linalg.Mat.equal (Linalg.Mat.transpose d) (Sparse.Csr.to_dense (Sparse.Csr.transpose m)))

let prop_kron_op_matches_matrix =
  (* matrix-free shuffle product == materialized Kronecker product *)
  let gen =
    let open QCheck2.Gen in
    let* sizes = list_size (int_range 1 3) (int_range 1 4) in
    let* factors =
      flatten_l
        (List.map
           (fun n ->
             let* entries =
               array_size (return (n * n))
                 (frequency [ (2, return 0.0); (1, float_range (-2.0) 2.0) ])
             in
             return
               (Sparse.Csr.of_dense
                  (Linalg.Mat.init ~rows:n ~cols:n (fun i j -> entries.((i * n) + j)))))
           sizes)
    in
    let* coeff = float_range (-2.0) 2.0 in
    return (coeff, factors)
  in
  QCheck2.Test.make ~name:"kron_op: shuffle apply matches materialized matrix" ~count:100 gen
    (fun (coeff, factors) ->
      let op = Sparse.Kron_op.term ~coeff factors in
      let n = Sparse.Kron_op.dim op in
      let x = Array.init n (fun i -> float_of_int ((i mod 5) - 2)) in
      let via_op = Sparse.Kron_op.apply op x in
      let via_matrix = Sparse.Csr.vec_mul x (Sparse.Kron_op.to_csr op) in
      Linalg.Vec.dist_l1 via_op via_matrix < 1e-9)

let prop_kron_matches_dense =
  let gen =
    let open QCheck2.Gen in
    let* a = random_dense_gen in
    let* b = random_dense_gen in
    return (a, b)
  in
  QCheck2.Test.make ~name:"kron: matches dense definition" ~count:50 gen (fun (da, db) ->
      let k = Sparse.Kron.product (Sparse.Csr.of_dense da) (Sparse.Csr.of_dense db) in
      let expected =
        Linalg.Mat.init
          ~rows:(Linalg.Mat.rows da * Linalg.Mat.rows db)
          ~cols:(Linalg.Mat.cols da * Linalg.Mat.cols db)
          (fun i j ->
            let rb = Linalg.Mat.rows db and cb = Linalg.Mat.cols db in
            Linalg.Mat.get da (i / rb) (j / cb) *. Linalg.Mat.get db (i mod rb) (j mod cb))
      in
      Linalg.Mat.equal ~tol:1e-12 expected (Sparse.Csr.to_dense k))

let () =
  Alcotest.run "sparse"
    [
      ( "coo",
        [
          Alcotest.test_case "duplicates merge" `Quick test_coo_duplicates_merge;
          Alcotest.test_case "zero cancellation" `Quick test_coo_zero_cancellation;
          Alcotest.test_case "bounds" `Quick test_coo_bounds;
          Alcotest.test_case "growth" `Quick test_coo_growth;
        ] );
      ( "csr",
        [
          Alcotest.test_case "dense roundtrip" `Quick test_csr_roundtrip;
          Alcotest.test_case "get" `Quick test_csr_get;
          Alcotest.test_case "mul_vec" `Quick test_csr_mul_vec;
          Alcotest.test_case "vec_mul" `Quick test_csr_vec_mul;
          Alcotest.test_case "transpose" `Quick test_csr_transpose;
          Alcotest.test_case "row_sums" `Quick test_csr_row_sums;
          Alcotest.test_case "add" `Quick test_csr_add;
          Alcotest.test_case "invalid structure rejected" `Quick test_csr_invalid_structure;
        ] );
      ( "kron",
        [
          Alcotest.test_case "known product" `Quick test_kron_known;
          Alcotest.test_case "stochastic closure" `Quick test_kron_stochastic_closure;
          Alcotest.test_case "empty list" `Quick test_kron_empty_list;
        ] );
      ( "kron-op",
        [
          Alcotest.test_case "matches materialized" `Quick test_kron_op_matches_materialized;
          Alcotest.test_case "sum of terms" `Quick test_kron_op_sum;
          Alcotest.test_case "stationary" `Quick test_kron_op_stationary;
          Alcotest.test_case "rejects non-stochastic" `Quick test_kron_op_rejects_non_stochastic;
          Alcotest.test_case "validation" `Quick test_kron_op_validation;
        ] );
      ("spy", [ Alcotest.test_case "render shape" `Quick test_spy_shapes ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_spmv_matches_dense;
            prop_transpose_matches_dense;
            prop_kron_matches_dense;
            prop_kron_op_matches_matrix;
          ] );
    ]
