(* Floyd-Rivest selection: the contract is bitwise agreement with the
   sort-based order statistics, including the awkward corners of the float
   total order (signed zeros, NaNs, duplicates). *)

open Helpers

let sorted_copy xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

(* [Float.compare] (hence the sort itself) treats -0. and 0. as equal, so
   when the data mixes zero signs neither the heapsort nor selection pins
   down which sign sits at index k; everywhere else agreement is bitwise. *)
let same_slot expected got =
  Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)
  || (expected = 0.0 && got = 0.0)

let check_nth_matches_sort name xs =
  let s = sorted_copy xs in
  Array.iteri
    (fun k expected ->
      let got = Numerics.Select.nth xs k in
      if not (same_slot expected got) then
        Alcotest.failf "%s: k=%d expected %h got %h" name k expected got)
    s

let nth_agrees_with_sort () =
  let rng = rng_of_seed 11 in
  for trial = 0 to 19 do
    let n = 1 + Numerics.Rng.int rng 200 in
    let xs =
      Array.init n (fun _ ->
          match Numerics.Rng.int rng 10 with
          | 0 -> 0.0
          | 1 -> -0.0
          | 2 -> Float.infinity
          | 3 -> Float.neg_infinity
          | _ -> (Numerics.Rng.float rng *. 2.0) -. 1.0)
    in
    check_nth_matches_sort (Printf.sprintf "trial %d" trial) xs
  done

let nth_handles_nans () =
  (* Array.sort Float.compare puts NaNs first; nth must agree positionally
     (NaN slots yield NaN, later slots the sorted finite values). *)
  let xs = [| 3.0; Float.nan; 1.0; Float.nan; 2.0 |] in
  check_true "k=0 is nan" (Float.is_nan (Numerics.Select.nth xs 0));
  check_true "k=1 is nan" (Float.is_nan (Numerics.Select.nth xs 1));
  check_close "k=2" 1.0 (Numerics.Select.nth xs 2);
  check_close "k=3" 2.0 (Numerics.Select.nth xs 3);
  check_close "k=4" 3.0 (Numerics.Select.nth xs 4)

let quantile_matches_summary () =
  let rng = rng_of_seed 12 in
  for _ = 1 to 20 do
    let n = 2 + Numerics.Rng.int rng 500 in
    let xs = Array.init n (fun _ -> (Numerics.Rng.float rng *. 10.0)) in
    List.iter
      (fun p ->
        let expected = Numerics.Summary.quantile xs p in
        let got = Numerics.Summary.quantile_unsorted xs p in
        if not (same_slot expected got) then
          Alcotest.failf "p=%g: expected %h got %h" p expected got)
      [ 0.0; 0.01; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]
  done

let quantile_duplicates () =
  let xs = Array.make 100 5.0 in
  List.iter
    (fun p ->
      check_close (Printf.sprintf "all-equal p=%g" p) 5.0
        (Numerics.Summary.quantile_unsorted xs p))
    [ 0.0; 0.3; 1.0 ]

let in_place_is_partial_reorder () =
  (* nth_in_place permutes but preserves the multiset. *)
  let rng = rng_of_seed 13 in
  let xs = Array.init 300 (fun _ -> Numerics.Rng.float rng) in
  let before = sorted_copy xs in
  let col = Numerics.Columns.of_array xs in
  let _ = Numerics.Select.nth_in_place col 150 in
  let a = Numerics.Columns.to_array col in
  let after = sorted_copy a in
  Array.iteri
    (fun i x -> check_close (Printf.sprintf "multiset slot %d" i) x after.(i))
    before;
  (* The selected element really is the order statistic... *)
  check_close "partitioned value" before.(150) a.(150);
  (* ... and everything left of it is <= it, right of it >= it. *)
  for i = 0 to 149 do
    check_true "left side" (Float.compare a.(i) a.(150) <= 0)
  done;
  for i = 151 to 299 do
    check_true "right side" (Float.compare a.(i) a.(150) >= 0)
  done

let rejects_bad_args () =
  check_raises_invalid "empty" (fun () -> Numerics.Select.nth [||] 0);
  check_raises_invalid "k < 0" (fun () -> Numerics.Select.nth [| 1.0 |] (-1));
  check_raises_invalid "k >= n" (fun () -> Numerics.Select.nth [| 1.0 |] 1);
  check_raises_invalid "p < 0" (fun () ->
      Numerics.Summary.quantile_unsorted [| 1.0; 2.0 |] (-0.1));
  check_raises_invalid "p > 1" (fun () ->
      Numerics.Summary.quantile_unsorted [| 1.0; 2.0 |] 1.1);
  check_raises_invalid "empty column" (fun () ->
      Numerics.Select.quantile_in_place (Numerics.Columns.create ()) 0.5)

let qcheck_select_equals_sort =
  qcheck ~count:300 "select quantile = sorted quantile (bitwise)"
    QCheck2.Gen.(
      pair
        (array_size (int_range 1 400) (float_range (-50.0) 50.0))
        (float_range 0.0 1.0))
    (fun (xs, p) ->
      Array.length xs = 0
      || same_slot
           (Numerics.Summary.quantile xs p)
           (Numerics.Summary.quantile_unsorted xs p))

let qcheck_quantile_in_place_equals_sort =
  qcheck ~count:300 "quantile_in_place on a column = sorted quantile"
    QCheck2.Gen.(
      pair
        (array_size (int_range 1 400) (float_range (-50.0) 50.0))
        (float_range 0.0 1.0))
    (fun (xs, p) ->
      Array.length xs = 0
      ||
      let col = Numerics.Columns.of_array xs in
      let got = Numerics.Select.quantile_in_place col p in
      (* Selection only reorders: the column keeps the same multiset. *)
      let after = Numerics.Columns.to_array col in
      Array.sort Float.compare after;
      same_slot (Numerics.Summary.quantile xs p) got
      && after = sorted_copy xs)

let qcheck_nth_equals_sort =
  qcheck ~count:300 "nth k = sorted.(k) (bitwise, with duplicates)"
    QCheck2.Gen.(
      pair
        (array_size (int_range 1 200) (int_range (-5) 5))
        (float_range 0.0 1.0))
    (fun (ints, u) ->
      let xs = Array.map float_of_int ints in
      let n = Array.length xs in
      n = 0
      ||
      let k = min (n - 1) (int_of_float (u *. float_of_int n)) in
      let s = sorted_copy xs in
      same_slot s.(k) (Numerics.Select.nth xs k))

let suite =
  [ case "nth agrees with sort on mixed specials" nth_agrees_with_sort;
    case "nth agrees with sort under NaNs" nth_handles_nans;
    case "quantile_unsorted = quantile (bitwise)" quantile_matches_summary;
    case "all-duplicate arrays" quantile_duplicates;
    case "nth_in_place partitions, preserves multiset"
      in_place_is_partial_reorder;
    case "argument validation" rejects_bad_args;
    qcheck_select_equals_sort;
    qcheck_quantile_in_place_equals_sort;
    qcheck_nth_equals_sort ]
