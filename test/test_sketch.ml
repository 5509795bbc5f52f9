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

let infinite_means_terminate () =
  (* Three infinite points become neighbouring infinite centroids, whose
     interpolation is NaN; the anchor walk must still end there. *)
  let sk = sketch_of [| 1.0; 2.0; infinity; infinity; infinity |] in
  check_true "q0.7 is NaN, not a hang"
    (Float.is_nan (Numerics.Sketch.quantile sk 0.7));
  check_close "q0.1 unaffected" 1.0 (Numerics.Sketch.quantile sk 0.1)

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

(* Bitwise agreement with the boxed reference flush ([Array.sub] plus
   [Array.sort Float.compare]) in [Numerics_oracle].  Streams are drawn
   from a small value pool so ties are common, with small compressions so
   one stream spans many flushes; queries interleave with the adds and
   force flushes of partial buffers.  No stream mixes [-0.] with [0.]:
   the two compare equal, and which sign a flush sorts first is left
   open by the ordering contract. *)
module O = Numerics_oracle.Sketch
module Sk = Numerics.Sketch

type op = Add of float | Quantile of float | Cdf of float

let gen_value =
  QCheck2.Gen.(
    frequency
      [ (6, map (fun k -> float_of_int k *. 0.125) (int_range (-8) 8));
        (3, map (fun x -> x +. 0.0) (float_range (-1e3) 1e3));
        (1, oneofl [ 1e-200; 5e-324; -5e-324; 1e300; infinity; neg_infinity ]) ])

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 0 1500)
      (frequency
         [ (40, map (fun x -> Add x) gen_value);
           (1, map (fun p -> Quantile p) (float_bound_inclusive 1.0));
           (1, map (fun x -> Cdf x) gen_value) ]))

let gen_compression = QCheck2.Gen.oneofl [ 10.0; 20.0; 37.5; 200.0 ]

let bits_equal name a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    QCheck2.Test.fail_reportf "%s: %h vs oracle %h" name a b

(* Replay [ops] on both sketches; the oracle answers queries through the
   production [quantile]/[cdf] over its own state. *)
let replay sk o ops =
  List.iter
    (function
      | Add x ->
        Sk.add sk x;
        O.add o x
      | Quantile p when Sk.count sk > 0 ->
        bits_equal "quantile" (Sk.quantile sk p)
          (Sk.quantile (Sk.of_columns (O.to_columns o)) p)
      | Cdf x when Sk.count sk > 0 ->
        bits_equal "cdf" (Sk.cdf sk x) (Sk.cdf (Sk.of_columns (O.to_columns o)) x)
      | Quantile _ | Cdf _ -> ())
    ops

let same_state sk o =
  let mine = Sk.to_columns sk and theirs = O.to_columns o in
  List.iter
    (fun name ->
      let a = Numerics.Columns.find mine name
      and b = Numerics.Columns.find theirs name in
      if Numerics.Columns.length a <> Numerics.Columns.length b then
        QCheck2.Test.fail_reportf "%s: length %d vs oracle %d" name
          (Numerics.Columns.length a) (Numerics.Columns.length b);
      Numerics.Columns.iteri
        (fun i x -> bits_equal (Printf.sprintf "%s.(%d)" name i) x
            (Numerics.Columns.get b i))
        a)
    [ "mean"; "weight"; "meta" ];
  List.iter
    (fun p ->
      bits_equal "final quantile" (Sk.quantile sk p)
        (Sk.quantile (Sk.of_columns theirs) p))
    (if Sk.count sk > 0 then [ 0.0; 0.05; 0.5; 0.95; 1.0 ] else []);
  true

let qcheck_flush_oracle =
  qcheck ~count:300 "add/flush/query bitwise = boxed-flush oracle"
    QCheck2.Gen.(pair gen_compression gen_ops)
    (fun (compression, ops) ->
      let sk = Sk.create ~compression () and o = O.create ~compression () in
      replay sk o ops;
      same_state sk o)

let qcheck_merge_into_oracle =
  qcheck ~count:100 "merge_into fold bitwise = boxed-flush oracle"
    QCheck2.Gen.(
      triple gen_compression (list_size (int_range 1 6) gen_ops) gen_ops)
    (fun (compression, parts, tail) ->
      let sk = Sk.create ~compression () and o = O.create ~compression () in
      List.iter
        (fun ops ->
          let part = Sk.create ~compression ()
          and opart = O.create ~compression () in
          replay part opart ops;
          Sk.merge_into ~into:sk part;
          O.merge_into ~into:o opart)
        parts;
      (* Keep adding to the merged sketch: its buffer refills and flushes
         against the merged centroids. *)
      replay sk o tail;
      same_state sk o)

(* [add] keeps its buffer unboxed and sorts it in place, so a point
   costs at most a few words: the boxed argument and its share of the
   per-flush centroid bookkeeping. *)
let add_allocation_budget () =
  let n = 100_000 in
  let rng = rng_of_seed 303 in
  let xs = Numerics.Columns.of_array (Array.init n (fun _ -> Numerics.Rng.float rng)) in
  let d = Numerics.Columns.unsafe_data xs in
  let sk = Sk.create () in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    Sk.add sk (Bigarray.Array1.unsafe_get d i)
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  if words > 4.0 then
    Alcotest.failf "Sketch.add allocates %.1f words per point (budget 4)" words

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
    case "quantile terminates between infinite means" infinite_means_terminate;
    qcheck_quantile_monotone;
    qcheck_merge_chunk_order;
    qcheck_flush_oracle;
    qcheck_merge_into_oracle;
    case "add allocates at most 4 words per point" add_allocation_budget ]
