(* t-digest quantile sketch: exact extremes, documented error bounds,
   deterministic merging. *)

open Helpers

let sketch_of xs =
  let sk = Numerics.Sketch.create () in
  Array.iter (Numerics.Sketch.add sk) xs;
  sk

let exact_small () =
  (* Below the centroid budget every point is its own centroid, so
     quantiles interpolate the exact sample set. *)
  let xs = Array.init 50 (fun i -> float_of_int i) in
  let sk = sketch_of xs in
  Alcotest.(check int) "count" 50 (Numerics.Sketch.count sk);
  check_close "min" 0.0 (Numerics.Sketch.minimum sk);
  check_close "max" 49.0 (Numerics.Sketch.maximum sk);
  check_close "q0" 0.0 (Numerics.Sketch.quantile sk 0.0);
  check_close "q1" 49.0 (Numerics.Sketch.quantile sk 1.0);
  check_close ~eps:1e-6 "median" 24.5 (Numerics.Sketch.quantile sk 0.5)

let uniform_error () =
  let rng = rng_of_seed 101 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Numerics.Rng.float rng) in
  let sk = sketch_of xs in
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  List.iter
    (fun p ->
      let approx = Numerics.Sketch.quantile sk p in
      let exact = Numerics.Summary.quantile_sorted sorted p in
      (* Rank error concentrates at the ends for the k1 scale; 1% of
         rank is a loose envelope across the whole range. *)
      check_in_range
        (Printf.sprintf "uniform p=%g" p)
        ~lo:(exact -. 0.01) ~hi:(exact +. 0.01) approx)
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ]

let lognormal_error () =
  (* The paper's belief shape: lognormal with mode 0.003.  Quantile
     estimates must stay within 1.5% relative rank of the exact ones. *)
  let d = Dist.Lognormal.of_mode_sigma ~mode:0.003 ~sigma:1.0 in
  let rng = rng_of_seed 102 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> d.Dist.sample rng) in
  let sk = sketch_of xs in
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  List.iter
    (fun p ->
      let approx = Numerics.Sketch.quantile sk p in
      (* Convert the value error back to rank space via the ECDF. *)
      let rank =
        let c = ref 0 in
        Array.iter (fun x -> if x <= approx then incr c) sorted;
        float_of_int !c /. float_of_int n
      in
      check_in_range
        (Printf.sprintf "lognormal p=%g rank" p)
        ~lo:(p -. 0.015) ~hi:(p +. 0.015) rank)
    [ 0.05; 0.25; 0.5; 0.75; 0.95 ]

let cdf_quantile_consistent () =
  let rng = rng_of_seed 103 in
  let xs = Array.init 20_000 (fun _ -> Numerics.Rng.float rng) in
  let sk = sketch_of xs in
  List.iter
    (fun p ->
      let x = Numerics.Sketch.quantile sk p in
      check_in_range
        (Printf.sprintf "cdf(quantile %g)" p)
        ~lo:(p -. 0.02) ~hi:(p +. 0.02)
        (Numerics.Sketch.cdf sk x))
    [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let merge_identity_and_counts () =
  let rng = rng_of_seed 104 in
  let xs = Array.init 5_000 (fun _ -> Numerics.Rng.float rng) in
  let sk = sketch_of xs in
  let empty = Numerics.Sketch.create () in
  let merged = Numerics.Sketch.merge sk empty in
  Alcotest.(check int) "count preserved" (Numerics.Sketch.count sk)
    (Numerics.Sketch.count merged);
  List.iter
    (fun p ->
      check_close
        (Printf.sprintf "empty is identity at p=%g" p)
        (Numerics.Sketch.quantile sk p)
        (Numerics.Sketch.quantile merged p))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let merge_deterministic () =
  (* Merging the same operands twice gives bitwise-identical quantiles:
     the property the parallel layer's fixed fold order relies on. *)
  let rng = rng_of_seed 105 in
  let part () =
    let xs = Array.init 10_000 (fun _ -> Numerics.Rng.float rng) in
    sketch_of xs
  in
  let a = part () and b = part () and c = part () in
  let q1 =
    let m = Numerics.Sketch.merge (Numerics.Sketch.merge a b) c in
    Array.map (Numerics.Sketch.quantile m) [| 0.1; 0.5; 0.9 |]
  in
  let q2 =
    let m = Numerics.Sketch.merge (Numerics.Sketch.merge a b) c in
    Array.map (Numerics.Sketch.quantile m) [| 0.1; 0.5; 0.9 |]
  in
  Array.iteri
    (fun i x ->
      check_true
        (Printf.sprintf "bitwise stable %d" i)
        (Int64.bits_of_float x = Int64.bits_of_float q2.(i)))
    q1

let merge_accuracy () =
  (* A merged sketch over split data stays close to a single sketch over
     the concatenation. *)
  let rng = rng_of_seed 106 in
  let xs = Array.init 40_000 (fun _ -> Numerics.Rng.float rng) in
  let whole = sketch_of xs in
  let left = sketch_of (Array.sub xs 0 20_000) in
  let right = sketch_of (Array.sub xs 20_000 20_000) in
  let merged = Numerics.Sketch.merge left right in
  Alcotest.(check int) "merged count" (Numerics.Sketch.count whole)
    (Numerics.Sketch.count merged);
  List.iter
    (fun p ->
      check_in_range
        (Printf.sprintf "merged vs whole p=%g" p)
        ~lo:(Numerics.Sketch.quantile whole p -. 0.02)
        ~hi:(Numerics.Sketch.quantile whole p +. 0.02)
        (Numerics.Sketch.quantile merged p))
    [ 0.1; 0.5; 0.9 ]

let bounded_memory () =
  let sk = Numerics.Sketch.create ~compression:100.0 () in
  let rng = rng_of_seed 107 in
  for _ = 1 to 200_000 do
    Numerics.Sketch.add sk (Numerics.Rng.float rng)
  done;
  (* The k1 scale admits ~compression/2 interior centroids after
     compaction, plus a handful of forced singletons in the extreme
     tails where a single point already spans a k-unit. *)
  check_true "centroids bounded"
    (Numerics.Sketch.centroid_count sk <= 70)

let rejects_bad_input () =
  let sk = Numerics.Sketch.create () in
  check_raises_invalid "NaN" (fun () -> Numerics.Sketch.add sk Float.nan);
  check_raises_invalid "tiny compression" (fun () ->
      Numerics.Sketch.create ~compression:2.0 ());
  let other = Numerics.Sketch.create ~compression:50.0 () in
  check_raises_invalid "mismatched compression" (fun () ->
      Numerics.Sketch.merge sk other);
  check_raises_invalid "quantile of empty" (fun () ->
      Numerics.Sketch.quantile sk 0.5)

let qcheck_quantile_monotone =
  qcheck ~count:100 "quantiles are monotone in p"
    QCheck2.Gen.(
      pair (int_range 1 2000)
        (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (n, (p1, p2)) ->
      let rng = rng_of_seed (n + 7) in
      let sk = Numerics.Sketch.create ~compression:50.0 () in
      for _ = 1 to n do
        Numerics.Sketch.add sk (Numerics.Rng.float rng)
      done;
      let lo = min p1 p2 and hi = max p1 p2 in
      Numerics.Sketch.quantile sk lo <= Numerics.Sketch.quantile sk hi)

let qcheck_merge_chunk_order =
  qcheck ~count:50 "left fold of parts = left fold of parts (stability)"
    QCheck2.Gen.(int_range 2 6)
    (fun parts ->
      let make i =
        let rng = rng_of_seed (1000 + i) in
        let sk = Numerics.Sketch.create () in
        for _ = 1 to 2000 do
          Numerics.Sketch.add sk (Numerics.Rng.float rng)
        done;
        sk
      in
      let sketches = List.init parts make in
      let fold () =
        List.fold_left Numerics.Sketch.merge (Numerics.Sketch.create ())
          sketches
      in
      let a = fold () and b = fold () in
      List.for_all
        (fun p ->
          Int64.bits_of_float (Numerics.Sketch.quantile a p)
          = Int64.bits_of_float (Numerics.Sketch.quantile b p))
        [ 0.05; 0.5; 0.95 ])

let add_column_replays_add () =
  (* [add_column] over a column slice is per-element [add] in order: same
     count, extremes and quantile bits, across segment boundaries. *)
  let rng = rng_of_seed 211 in
  let xs = Array.init 20_000 (fun _ -> Numerics.Rng.normal rng ~mu:0.0 ~sigma:1.0) in
  let scalar = sketch_of xs in
  let col = Numerics.Columns.of_array xs in
  let batched = Numerics.Sketch.create () in
  Numerics.Sketch.add_column batched col ~pos:0 ~len:7_000;
  Numerics.Sketch.add_column batched col ~pos:7_000 ~len:0;
  Numerics.Sketch.add_column batched col ~pos:7_000 ~len:13_000;
  Alcotest.(check int) "count" (Numerics.Sketch.count scalar)
    (Numerics.Sketch.count batched);
  List.iter
    (fun p ->
      let bits sk = Int64.bits_of_float (Numerics.Sketch.quantile sk p) in
      check_true (Printf.sprintf "quantile bits p=%g" p)
        (bits scalar = bits batched))
    [ 0.0; 0.01; 0.5; 0.99; 1.0 ];
  check_raises_invalid "range check" (fun () ->
      Numerics.Sketch.add_column batched col ~pos:19_999 ~len:2)

let suite =
  [ case "small sketches are exact" exact_small;
    case "uniform quantile error" uniform_error;
    case "lognormal (mode 0.003) rank error" lognormal_error;
    case "cdf/quantile consistency" cdf_quantile_consistent;
    case "merge with empty is identity" merge_identity_and_counts;
    case "merge is deterministic (bitwise)" merge_deterministic;
    case "merge over split data stays accurate" merge_accuracy;
    case "centroid count bounded" bounded_memory;
    case "argument validation" rejects_bad_input;
    case "add_column replays per-element add" add_column_replays_add;
    qcheck_quantile_monotone;
    qcheck_merge_chunk_order ]
