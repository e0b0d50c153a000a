type t = { map : int array; n_fine : int; n_coarse : int; sizes : int array }

let create map =
  let n_fine = Array.length map in
  if n_fine = 0 then { map; n_fine = 0; n_coarse = 0; sizes = [||] }
  else begin
    let max_label = Array.fold_left max 0 map in
    Array.iter (fun b -> if b < 0 then invalid_arg "Partition.create: negative block label") map;
    let seen = Array.make (max_label + 1) false in
    Array.iter (fun b -> seen.(b) <- true) map;
    if not (Array.for_all Fun.id seen) then
      invalid_arg "Partition.create: block labels are not contiguous from 0";
    let sizes = Array.make (max_label + 1) 0 in
    Array.iter (fun b -> sizes.(b) <- sizes.(b) + 1) map;
    { map = Array.copy map; n_fine; n_coarse = max_label + 1; sizes }
  end

let pair_consecutive n = create (Array.init n (fun i -> i / 2))

(* Counting sort of the fine states by block: one pass to size the blocks,
   one to place each state, so members come out ascending within a block. *)
let members t =
  let ptr = Array.make (t.n_coarse + 1) 0 in
  Array.iteri (fun b size -> ptr.(b + 1) <- ptr.(b) + size) t.sizes;
  let next = Array.sub ptr 0 t.n_coarse and members = Array.make t.n_fine 0 in
  Array.iteri (fun i b -> members.(next.(b)) <- i; next.(b) <- next.(b) + 1) t.map;
  (ptr, members)

(* Greedy vertex coloring in vertex order: each vertex takes the smallest
   color absent from its already-seen neighborhood. Deterministic (the order
   is 0..n-1, not degree- or hash-driven) and contiguous (color c is only
   introduced when 0..c-1 are all taken by neighbors), so the result is a
   valid partition whose blocks are the color classes. *)
let color ~n neighbors =
  if n = 0 then create [||]
  else begin
    let colors = Array.make n (-1) in
    (* [taken.(c) = i] marks color c as used by a neighbor of vertex i *)
    let taken = Array.make n (-1) in
    for i = 0 to n - 1 do
      neighbors i (fun j ->
          if j < 0 || j >= n then invalid_arg "Partition.color: neighbor out of range";
          if j <> i && colors.(j) >= 0 then taken.(colors.(j)) <- i);
      let c = ref 0 in
      while taken.(!c) = i do
        incr c
      done;
      colors.(i) <- !c
    done;
    create colors
  end

let prolong_into t ~coarse ~block_weight x =
  if Array.length coarse <> t.n_coarse || Array.length block_weight <> t.n_coarse then
    invalid_arg "Partition.prolong_into: coarse dimension";
  if Array.length x <> t.n_fine then invalid_arg "Partition.prolong_into: fine dimension";
  for i = 0 to t.n_fine - 1 do
    let b = t.map.(i) in
    let bw = block_weight.(b) in
    x.(i) <- (if bw > 0.0 then coarse.(b) *. x.(i) /. bw else coarse.(b) /. float_of_int t.sizes.(b))
  done
