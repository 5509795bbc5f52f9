let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let mean xs =
  check_nonempty "Summary.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  if Array.length xs < 2 then invalid_arg "Summary.variance: need >= 2 samples";
  let m = mean xs in
  let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
  ss /. float_of_int (Array.length xs - 1)

let std xs = sqrt (variance xs)

let check_p name p =
  if p < 0.0 || p > 1.0 then invalid_arg (name ^ ": p not in [0,1]")

let quantile_sorted sorted p =
  check_nonempty "Summary.quantile_sorted" sorted;
  check_p "Summary.quantile_sorted" p;
  let n = Array.length sorted in
  let h = p *. float_of_int (n - 1) in
  let i = int_of_float (floor h) in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((h -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let quantile xs p =
  check_nonempty "Summary.quantile" xs;
  check_p "Summary.quantile" p;
  let sorted = Array.copy xs in
  (* [Float.compare], not polymorphic [compare]: no generic-compare
     dispatch per element, and a total order that places NaNs first
     instead of raising surprises deep inside the sort. *)
  Array.sort Float.compare sorted;
  quantile_sorted sorted p

let quantile_unsorted xs p =
  check_nonempty "Summary.quantile_unsorted" xs;
  check_p "Summary.quantile_unsorted" p;
  Select.quantile_in_place (Columns.of_array xs) p

let median xs = quantile xs 0.5

let minimum xs =
  check_nonempty "Summary.minimum" xs;
  Array.fold_left min xs.(0) xs

let maximum xs =
  check_nonempty "Summary.maximum" xs;
  Array.fold_left max xs.(0) xs

let histogram ~edges xs =
  let nbins = Array.length edges - 1 in
  if nbins < 1 then invalid_arg "Summary.histogram: need >= 2 edges";
  let counts = Array.make nbins 0 in
  let record x =
    if x >= edges.(0) && x <= edges.(nbins) then begin
      let i = Interp.search_sorted edges x in
      let i = if i >= nbins then nbins - 1 else i in
      if i >= 0 then counts.(i) <- counts.(i) + 1
    end
  in
  Array.iter record xs;
  counts

module Online = struct
  (* All-float record: OCaml stores it flat, so [add] updates the fields in
     place without allocating.  (The previous mixed int/float layout boxed
     both float fields, costing two allocations and two write barriers per
     observation — per sample on the Monte-Carlo hot path.)  [n] is always
     integer-valued and exact below 2^53. *)
  type t = { mutable n : float; mutable mu : float; mutable m2 : float }

  let create () = { n = 0.0; mu = 0.0; m2 = 0.0 }

  let add t x =
    let n = t.n +. 1.0 in
    t.n <- n;
    let delta = x -. t.mu in
    t.mu <- t.mu +. (delta /. n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mu))

  (* Fold a column segment with the Welford state in unboxed locals; the
     result is bit-identical to calling [add] once per element. *)
  let add_column t col ~pos ~len =
    if pos < 0 || len < 0 || len > Columns.length col - pos then
      invalid_arg "Summary.Online.add_column";
    let buf = Columns.unsafe_data col in
    let n = ref t.n and mu = ref t.mu and m2 = ref t.m2 in
    for i = pos to pos + len - 1 do
      let x = Bigarray.Array1.unsafe_get buf i in
      let nn = !n +. 1.0 in
      n := nn;
      let delta = x -. !mu in
      let mu' = !mu +. (delta /. nn) in
      mu := mu';
      m2 := !m2 +. (delta *. (x -. mu'))
    done;
    t.n <- !n;
    t.mu <- !mu;
    t.m2 <- !m2

  let count t = int_of_float t.n

  let mean t =
    if t.n = 0.0 then invalid_arg "Summary.Online.mean: no observations";
    t.mu

  let variance t =
    if t.n < 2.0 then
      invalid_arg "Summary.Online.variance: need >= 2 observations";
    t.m2 /. (t.n -. 1.0)

  let std t = sqrt (variance t)

  (* Chan, Golub & LeVeque (1983) pairwise combination: exact in n, and the
     mean/M2 updates introduce only one rounding step per merge, so folding
     per-chunk accumulators in a fixed order is reproducible bit for bit. *)
  let merge a b =
    if a.n = 0.0 then { n = b.n; mu = b.mu; m2 = b.m2 }
    else if b.n = 0.0 then { n = a.n; mu = a.mu; m2 = a.m2 }
    else begin
      let n = a.n +. b.n in
      let delta = b.mu -. a.mu in
      {
        n;
        mu = a.mu +. (delta *. (b.n /. n));
        m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n);
      }
    end
end
