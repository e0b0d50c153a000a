open Sparse

type kind = [ `Csr | `Kron ]

let kind_string = function `Csr -> "csr" | `Kron -> "kron"

let kind_of_string = function
  | "csr" -> Some `Csr
  | "kron" -> Some `Kron
  | _ -> None

(* The operator record every backend fills in. A record of closures rather
   than a first-class module: call sites only ever consume the operations,
   and closures let each backend capture exactly the private state it needs
   (a reusable Kronecker workspace) without leaking it into
   the interface. *)
type t = {
  dim : int;
  kind : kind;
  label : string;
  nnz_estimate : int;
      (* stored nonzeros for CSR; the materialization bound for Kronecker *)
  vec_mul_into : ?pool:Cdr_par.Pool.t -> Linalg.Vec.t -> Linalg.Vec.t -> unit;
      (* y <- x * M, the row-vector kernel of power iteration and smoothing *)
  row_sums : unit -> Linalg.Vec.t;
  iter_row : int -> (int -> float -> unit) -> unit;
  to_csr : unit -> Csr.t;
}

module Csr_backend = struct
  (* Wraps an existing CSR transition matrix. [vec_mul_into] is the exact
     [Csr.vec_mul_into] kernel the solvers called before the abstraction
     existed, so results are bitwise identical to the historical paths. *)
  let create m =
    if Csr.rows m <> Csr.cols m then invalid_arg "Cdr_op.Csr_backend.create: matrix must be square";
    let n = Csr.rows m in
    let sums = lazy (Csr.row_sums m) in
    {
      dim = n;
      kind = `Csr;
      label = Printf.sprintf "csr[%d states, %d nnz]" n (Csr.nnz m);
      nnz_estimate = Csr.nnz m;
      vec_mul_into = (fun ?pool x y -> Csr.vec_mul_into ?pool x m y);
      row_sums = (fun () -> Lazy.force sums);
      iter_row = (fun i emit -> Csr.iter_row m i emit);
      to_csr = (fun () -> m);
    }
end

module Kron_backend = struct
  (* Matrix-free over a sum of Kronecker terms. The operator owns one
     reusable [Kron_op.workspace] (two length-n ping-pong buffers, built on
     first apply), so the inner loop of a stationary solve allocates nothing;
     it also means one operator value must not be applied from two domains
     at once — solvers apply sequentially and parallelize inside the apply
     via [?pool]. *)
  let create ?label op =
    let n = Kron_op.dim op in
    let ws = lazy (Kron_op.workspace op) in
    let sums = lazy (Kron_op.row_sums op) in
    let label =
      match label with
      | Some l -> l
      | None ->
          Printf.sprintf "kron[%d states, %d terms, nnz<=%d]" n (Kron_op.n_terms op)
            (Kron_op.nnz_bound op)
    in
    {
      dim = n;
      kind = `Kron;
      label;
      nnz_estimate = Kron_op.nnz_bound op;
      vec_mul_into = (fun ?pool x y -> Kron_op.apply_into ?pool op ~ws:(Lazy.force ws) x y);
      row_sums = (fun () -> Lazy.force sums);
      iter_row = (fun i emit -> Kron_op.iter_row op i emit);
      to_csr = (fun () -> Kron_op.to_csr op);
    }
end

let dim op = op.dim
let kind op = op.kind
let label op = op.label
let nnz_estimate op = op.nnz_estimate
let vec_mul_into ?pool op x y = op.vec_mul_into ?pool x y
let row_sums op = op.row_sums ()
let iter_row op i emit = op.iter_row i emit

let iter_entries op emit =
  for i = 0 to dim op - 1 do
    iter_row op i (fun j v -> emit i j v)
  done

let to_csr op = op.to_csr ()

let check_stochastic ?(tol = 1e-9) op =
  let sums = row_sums op in
  let worst = ref 0.0 and worst_row = ref (-1) in
  Array.iteri
    (fun i s ->
      let d = abs_float (s -. 1.0) in
      if d > !worst then begin
        worst := d;
        worst_row := i
      end)
    sums;
  if !worst > tol then
    Error
      (Printf.sprintf "row %d sums to %.17g (deviation %.3g exceeds %.3g)" !worst_row
         sums.(!worst_row) !worst tol)
  else Ok ()
