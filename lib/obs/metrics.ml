type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  base : float;
  buckets : (int, int) Hashtbl.t;
}

type kind = Counter of int | Gauge of float | Histogram of histogram

type series = { name : string; labels : (string * string) list; kind : kind }

(* internal mutable cells behind the snapshot types above *)
type cell = C of int ref | G of float ref | H of histogram

let registry : (string * (string * string) list, cell) Hashtbl.t = Hashtbl.create 64

(* One mutex guards the registry table and every cell mutation, so parallel
   sweep points can record without torn updates or lost increments. The
   sections are a few instructions; contention is negligible next to the
   solves being instrumented. *)
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let key name labels = (name, List.sort compare labels)

(* call only with [mutex] held *)
let find_or_create name labels create =
  let k = key name labels in
  match Hashtbl.find_opt registry k with
  | Some cell -> cell
  | None ->
      let cell = create () in
      Hashtbl.add registry k cell;
      cell

let wrong_kind name = invalid_arg (Printf.sprintf "Metrics: %s already registered with another kind" name)

let incr ?(labels = []) name =
  locked (fun () ->
      match find_or_create name labels (fun () -> C (ref 0)) with
      | C r -> r := !r + 1
      | G _ | H _ -> wrong_kind name)

let add ?(labels = []) name n =
  locked (fun () ->
      match find_or_create name labels (fun () -> C (ref 0)) with
      | C r -> r := !r + n
      | G _ | H _ -> wrong_kind name)

let set_gauge ?(labels = []) name v =
  locked (fun () ->
      match find_or_create name labels (fun () -> G (ref 0.0)) with
      | G r -> r := v
      | C _ | H _ -> wrong_kind name)

let bucket_of ~base v =
  if (not (Float.is_finite v)) || v <= 0.0 then min_int
  else begin
    (* seed with log, then correct: floating log is off by one at exact
       powers (log10 1000 can land just under 3) *)
    let e = ref (int_of_float (Float.floor (Float.log v /. Float.log base))) in
    while base ** float_of_int (!e + 1) <= v do
      e := !e + 1
    done;
    while base ** float_of_int !e > v do
      e := !e - 1
    done;
    !e
  end

let bucket_bounds ~base e = (base ** float_of_int e, base ** float_of_int (e + 1))

let observe ?(labels = []) ?(base = 10.0) name v =
  if base <= 1.0 then invalid_arg "Metrics.observe: base must exceed 1";
  locked (fun () ->
      let h =
        match
          find_or_create name labels (fun () ->
              H
                {
                  count = 0;
                  sum = 0.0;
                  min_v = Float.infinity;
                  max_v = Float.neg_infinity;
                  base;
                  buckets = Hashtbl.create 16;
                })
        with
        | H h -> h
        | C _ | G _ -> wrong_kind name
      in
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v < h.min_v then h.min_v <- v;
      if v > h.max_v then h.max_v <- v;
      let b = bucket_of ~base:h.base v in
      Hashtbl.replace h.buckets b (1 + Option.value ~default:0 (Hashtbl.find_opt h.buckets b)))

(* exclusive-upper quantile positions by log-bucket interpolation: find the
   bucket holding the [q * count]-th observation, then interpolate
   geometrically inside it (the buckets are log-scale, so the geometric
   midpoint is the unbiased guess), clamped to the observed [min, max].
   Observations in the underflow bucket (v <= 0 or non-finite) are treated
   as sitting at [min_v]. *)
let quantile h q =
  if h.count = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int h.count in
    let buckets =
      Hashtbl.fold (fun e n acc -> (e, n) :: acc) h.buckets [] |> List.sort compare
    in
    let clamp v = Float.max h.min_v (Float.min h.max_v v) in
    let rec walk cum = function
      | [] -> h.max_v
      | (e, n) :: rest ->
          let cum' = cum +. float_of_int n in
          if target <= cum' || rest = [] then
            if e = min_int then h.min_v
            else begin
              let lo, hi = bucket_bounds ~base:h.base e in
              let f = Float.max 0.0 (Float.min 1.0 ((target -. cum) /. float_of_int n)) in
              clamp (lo *. ((hi /. lo) ** f))
            end
          else walk cum' rest
    in
    walk 0.0 buckets
  end

(* call only with [mutex] held: a snapshot the caller can read lock-free *)
let copy_histogram h = { h with buckets = Hashtbl.copy h.buckets }

let quantile_of ?(labels = []) name q =
  let h =
    locked (fun () ->
        match Hashtbl.find_opt registry (key name labels) with
        | Some (H h) -> Some (copy_histogram h)
        | Some (C _ | G _) | None -> None)
  in
  Option.map (fun h -> quantile h q) h

let dump () =
  locked (fun () ->
      Hashtbl.fold
        (fun (name, labels) cell acc ->
          let kind =
            match cell with
            | C r -> Counter !r
            | G r -> Gauge !r
            | H h -> Histogram (copy_histogram h)
          in
          { name; labels; kind } :: acc)
        registry [])
  |> List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels))

let pp_labels ppf labels =
  if labels <> [] then
    Format.fprintf ppf "{%s}"
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

let pp ppf () =
  let series = dump () in
  if series = [] then Format.fprintf ppf "(no metrics recorded)@."
  else
    List.iter
      (fun s ->
        match s.kind with
        | Counter n -> Format.fprintf ppf "%s%a = %d@." s.name pp_labels s.labels n
        | Gauge v -> Format.fprintf ppf "%s%a = %g@." s.name pp_labels s.labels v
        | Histogram h ->
            Format.fprintf ppf "%s%a : n=%d sum=%g min=%g max=%g@." s.name pp_labels s.labels
              h.count h.sum h.min_v h.max_v;
            Hashtbl.fold (fun e n acc -> (e, n) :: acc) h.buckets []
            |> List.sort compare
            |> List.iter (fun (e, n) ->
                   if e = min_int then Format.fprintf ppf "    (<= 0)          : %d@." n
                   else
                     let lo, hi = bucket_bounds ~base:h.base e in
                     Format.fprintf ppf "    [%.3g, %.3g) : %d@." lo hi n))
      series

let reset () = locked (fun () -> Hashtbl.reset registry)
