let is_power_of_two n = n > 0 && n land (n - 1) = 0

let next_power_of_two n =
  if n <= 1 then 1
  else begin
    let p = ref 1 in
    while !p < n do
      p := !p * 2
    done;
    !p
  end

(* iterative Cooley-Tukey with bit-reversal permutation *)
let fft_in_place ~re ~im ~sign =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Fft: re/im length mismatch";
  if not (is_power_of_two n) then invalid_arg "Fft: length must be a power of two";
  (* bit reversal *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = re.(i) in
      re.(i) <- re.(!j);
      re.(!j) <- tr;
      let ti = im.(i) in
      im.(i) <- im.(!j);
      im.(!j) <- ti
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  (* butterflies *)
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let theta = sign *. 2.0 *. Float.pi /. float_of_int !len in
    let wr = cos theta and wi = sin theta in
    let i = ref 0 in
    while !i < n do
      let cr = ref 1.0 and ci = ref 0.0 in
      for k = 0 to half - 1 do
        let a = !i + k and b = !i + k + half in
        let tr = (re.(b) *. !cr) -. (im.(b) *. !ci) in
        let ti = (re.(b) *. !ci) +. (im.(b) *. !cr) in
        re.(b) <- re.(a) -. tr;
        im.(b) <- im.(a) -. ti;
        re.(a) <- re.(a) +. tr;
        im.(a) <- im.(a) +. ti;
        let ncr = (!cr *. wr) -. (!ci *. wi) in
        ci := (!cr *. wi) +. (!ci *. wr);
        cr := ncr
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

let transform ~re ~im = fft_in_place ~re ~im ~sign:(-1.0)

let inverse ~re ~im =
  fft_in_place ~re ~im ~sign:1.0;
  let n = float_of_int (Array.length re) in
  for i = 0 to Array.length re - 1 do
    re.(i) <- re.(i) /. n;
    im.(i) <- im.(i) /. n
  done
