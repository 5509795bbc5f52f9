(* Floyd–Rivest selection (CACM 18(3), 1975) over the [Float.compare]
   order.

   NaNs cannot be ordered by primitive comparisons, so a single O(n)
   pre-pass swaps them to the front of the array — exactly where
   [Array.sort Float.compare] would put them — and selection proper runs
   on the NaN-free suffix with fast primitive comparisons.  On that
   suffix the primitive order IS the [Float.compare] order:
   [Float.compare] is IEEE-numeric apart from NaN placement (in
   particular [Float.compare (-0.) 0. = 0]), so no tie-breaking is
   needed — compare-equal elements, including mixed-sign zeros, are
   interchangeable for the sort itself.

   Selection runs in place over a float64 column's storage. *)

let lt (a : float) b = a < b
let eq (a : float) b = a = b

let swap (a : Columns.ba) i j =
  let t = Bigarray.Array1.unsafe_get a i in
  Bigarray.Array1.unsafe_set a i (Bigarray.Array1.unsafe_get a j);
  Bigarray.Array1.unsafe_set a j t

(* Classic Floyd–Rivest: for windows above the cutoff, recurse on a
   sampled subwindow around k to find a near-optimal pivot, then
   partition.  Expected comparisons n + min(k, n-k) + o(n).  All
   arithmetic below is deterministic, so selection is a pure function of
   the column contents. *)
let rec select (a : Columns.ba) left right k =
  let left = ref left and right = ref right in
  while !right > !left do
    if !right - !left > 600 then begin
      let n = float_of_int (!right - !left + 1) in
      let i = float_of_int (k - !left + 1) in
      let z = log n in
      let s = 0.5 *. exp (2.0 *. z /. 3.0) in
      let sd =
        0.5
        *. sqrt (z *. s *. (n -. s) /. n)
        *. (if i -. (n /. 2.0) < 0.0 then -1.0 else 1.0)
      in
      let new_left = max !left (k - int_of_float ((i *. s /. n) -. sd)) in
      let new_right =
        min !right (k + int_of_float (((n -. i) *. s /. n) +. sd))
      in
      select a new_left new_right k
    end;
    let t = Bigarray.Array1.get a k in
    let i = ref !left and j = ref !right in
    swap a !left k;
    if lt t (Bigarray.Array1.get a !right) then swap a !right !left;
    while !i < !j do
      swap a !i !j;
      incr i;
      decr j;
      while lt (Bigarray.Array1.unsafe_get a !i) t do
        incr i
      done;
      while lt t (Bigarray.Array1.unsafe_get a !j) do
        decr j
      done
    done;
    if eq (Bigarray.Array1.get a !left) t then swap a !left !j
    else begin
      incr j;
      swap a !j !right
    end;
    if !j <= k then left := !j + 1;
    if k <= !j then right := !j - 1
  done

let nth_in_place col k =
  let n = Columns.length col in
  if n = 0 then invalid_arg "Select.nth_in_place: empty column";
  if k < 0 || k >= n then invalid_arg "Select.nth_in_place: k out of range";
  let a = Columns.unsafe_data col in
  (* Move NaNs to the front (they are all equal under Float.compare, so
     any arrangement among themselves matches the sorted order). *)
  let m = ref 0 in
  for i = 0 to n - 1 do
    let x = Bigarray.Array1.unsafe_get a i in
    if x <> x then begin
      swap a i !m;
      incr m
    end
  done;
  if k < !m then Bigarray.Array1.get a k
  else begin
    select a !m (n - 1) k;
    Bigarray.Array1.get a k
  end

let nth a k = nth_in_place (Columns.of_array a) k

let quantile_in_place col p =
  let n = Columns.length col in
  if n = 0 then invalid_arg "Select.quantile_in_place: empty column";
  if p < 0.0 || p > 1.0 then
    invalid_arg "Select.quantile_in_place: p not in [0,1]";
  let h = p *. float_of_int (n - 1) in
  let i = int_of_float (floor h) in
  if i >= n - 1 then nth_in_place col (n - 1)
  else begin
    let lo = nth_in_place col i in
    (* After selection the suffix holds order statistics i+1 .. n-1, so
       the (i+1)-th is its minimum; ties under the total order are
       bitwise-identical values, so this matches sorted.(i+1) exactly.
       NaNs only ever occupy a prefix, never the suffix scanned here. *)
    let a = Columns.unsafe_data col in
    let hi = ref (Bigarray.Array1.get a (i + 1)) in
    for j = i + 2 to n - 1 do
      let x = Bigarray.Array1.unsafe_get a j in
      if lt x !hi then hi := x
    done;
    lo +. ((h -. float_of_int i) *. (!hi -. lo))
  end
