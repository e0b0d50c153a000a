type t = { atoms : (int * float) array }

let create entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (label, w) ->
      if w < 0.0 || not (Float.is_finite w) then
        invalid_arg (Printf.sprintf "Pmf.create: invalid weight %g for label %d" w label);
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl label) in
      Hashtbl.replace tbl label (prev +. w))
    entries;
  let pairs = Hashtbl.fold (fun label w acc -> if w > 0.0 then (label, w) :: acc else acc) tbl [] in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs in
  if total <= 0.0 then invalid_arg "Pmf.create: total weight is zero";
  let atoms = Array.of_list (List.map (fun (label, w) -> (label, w /. total)) pairs) in
  Array.sort (fun (a, _) (b, _) -> compare a b) atoms;
  { atoms }

let point label = { atoms = [| (label, 1.0) |] }

let uniform labels =
  if labels = [] then invalid_arg "Pmf.uniform: empty support";
  create (List.map (fun label -> (label, 1.0)) labels)

let bernoulli ~p a b =
  if p < 0.0 || p > 1.0 then invalid_arg "Pmf.bernoulli: p out of [0,1]";
  if a = b then point a else create [ (a, p); (b, 1.0 -. p) ]

let support t = Array.map fst t.atoms

let prob t label =
  let n = Array.length t.atoms in
  let rec search lo hi =
    if lo > hi then 0.0
    else
      let mid = (lo + hi) / 2 in
      let l, w = t.atoms.(mid) in
      if l = label then w else if l < label then search (mid + 1) hi else search lo (mid - 1)
  in
  search 0 (n - 1)

let cardinal t = Array.length t.atoms

let iter t f = Array.iter (fun (label, w) -> f label w) t.atoms

let fold t ~init ~f = Array.fold_left (fun acc (label, w) -> f acc label w) init t.atoms

let mean t = fold t ~init:0.0 ~f:(fun acc label w -> acc +. (float_of_int label *. w))

let variance t =
  let m = mean t in
  fold t ~init:0.0 ~f:(fun acc label w ->
      let d = float_of_int label -. m in
      acc +. (w *. d *. d))

let min_support t = fst t.atoms.(0)

let max_support t = fst t.atoms.(Array.length t.atoms - 1)

let map_labels f t = create (Array.to_list (Array.map (fun (label, w) -> (f label, w)) t.atoms))

let convolve a b =
  let entries = ref [] in
  iter a (fun la wa -> iter b (fun lb wb -> entries := (la + lb, wa *. wb) :: !entries));
  create !entries

let cdf_le t x = fold t ~init:0.0 ~f:(fun acc label w -> if label <= x then acc +. w else acc)

let total_variation a b =
  let labels = Hashtbl.create 16 in
  iter a (fun label _ -> Hashtbl.replace labels label ());
  iter b (fun label _ -> Hashtbl.replace labels label ());
  let acc = ref 0.0 in
  Hashtbl.iter (fun label () -> acc := !acc +. abs_float (prob a label -. prob b label)) labels;
  0.5 *. !acc

let equal ?(tol = 0.0) a b = total_variation a b <= tol

let pp ppf t =
  Format.fprintf ppf "@[<h>{";
  iter t (fun label w -> Format.fprintf ppf " %d:%.4g" label w);
  Format.fprintf ppf " }@]"
