open Helpers
module R = Numerics.Rng
module S = Numerics.Summary

let sample_floats rng n f = Array.init n (fun _ -> f rng)

let test_determinism () =
  let a = R.create 7 and b = R.create 7 in
  for i = 0 to 99 do
    if R.bits64 a <> R.bits64 b then Alcotest.failf "diverged at draw %d" i
  done;
  check_true "different seeds differ"
    (R.bits64 (R.create 8) <> R.bits64 (R.create 7))

let test_copy_and_split () =
  let a = R.create 99 in
  let b = R.copy a in
  check_true "copy replays" (R.bits64 a = R.bits64 b);
  let c = R.split a in
  check_true "split stream differs" (R.bits64 a <> R.bits64 c)

let test_split_n () =
  (* Stream i is deterministically the i-th split of the parent. *)
  let fam1 = R.split_n (R.create 7) 5 in
  let fam2 = R.split_n (R.create 7) 5 in
  Array.iteri
    (fun i s1 ->
      if R.bits64 s1 <> R.bits64 fam2.(i) then
        Alcotest.failf "family diverged at stream %d" i)
    fam1;
  (* Distinct streams start differently. *)
  let firsts = Array.map R.bits64 (R.split_n (R.create 7) 8) in
  let uniq = List.sort_uniq compare (Array.to_list firsts) in
  Alcotest.(check int) "distinct streams" 8 (List.length uniq);
  Alcotest.(check int) "n = 0 allowed" 0 (Array.length (R.split_n (R.create 7) 0));
  check_raises_invalid "n < 0" (fun () -> ignore (R.split_n (R.create 7) (-1)))

let test_split_independence () =
  (* Guard the parallel fan-out: the split stream must look uniform on its
     own and uncorrelated with the parent stream it was derived from. *)
  let parent = R.create 424242 in
  let child = R.split parent in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> R.float parent) in
  let ys = Array.init n (fun _ -> R.float child) in
  let ks_child = Numerics.Stat_tests.ks_uniform ys in
  check_true "split stream uniform (KS)" (ks_child.p_value > 1e-4);
  let ks_parent = Numerics.Stat_tests.ks_uniform xs in
  check_true "parent stream uniform (KS)" (ks_parent.p_value > 1e-4);
  let mx = S.mean xs and my = S.mean ys in
  let cov = ref 0.0 in
  for i = 0 to n - 1 do
    cov := !cov +. ((xs.(i) -. mx) *. (ys.(i) -. my))
  done;
  let r = !cov /. float_of_int (n - 1) /. (S.std xs *. S.std ys) in
  (* Under independence r ~ N(0, 1/sqrt n); 4 sigma with a fixed seed. *)
  check_in_range "parent/child correlation"
    ~lo:(-4.0 /. sqrt (float_of_int n))
    ~hi:(4.0 /. sqrt (float_of_int n))
    r;
  (* Sibling streams from the same fan-out must also decorrelate. *)
  let fam = R.split_n (R.create 424242) 2 in
  let a = Array.init n (fun _ -> R.float fam.(0)) in
  let b = Array.init n (fun _ -> R.float fam.(1)) in
  let ma = S.mean a and mb = S.mean b in
  let cov2 = ref 0.0 in
  for i = 0 to n - 1 do
    cov2 := !cov2 +. ((a.(i) -. ma) *. (b.(i) -. mb))
  done;
  let r2 = !cov2 /. float_of_int (n - 1) /. (S.std a *. S.std b) in
  check_in_range "sibling correlation"
    ~lo:(-4.0 /. sqrt (float_of_int n))
    ~hi:(4.0 /. sqrt (float_of_int n))
    r2

let test_float_range () =
  let rng = R.create 3 in
  for _ = 1 to 10_000 do
    let u = R.float rng in
    if u < 0.0 || u >= 1.0 then Alcotest.failf "float out of [0,1): %g" u
  done;
  for _ = 1 to 1000 do
    let u = R.float_pos rng in
    if u <= 0.0 then Alcotest.fail "float_pos returned 0"
  done

let test_int_uniformity () =
  let rng = R.create 11 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = R.int rng 10 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun k c ->
      let expected = float_of_int n /. 10.0 in
      if abs_float (float_of_int c -. expected) > 5.0 *. sqrt expected then
        Alcotest.failf "bucket %d count %d too far from %g" k c expected)
    counts;
  check_raises_invalid "int 0" (fun () -> ignore (R.int rng 0))

let check_mean_std name rng f ~mean ~std ~n =
  let samples = sample_floats rng n f in
  let m = S.mean samples in
  let tolerance = 6.0 *. std /. sqrt (float_of_int n) in
  if abs_float (m -. mean) > tolerance then
    Alcotest.failf "%s: sample mean %g, expected %g +- %g" name m mean tolerance

let test_normal_moments () =
  let rng = R.create 21 in
  check_mean_std "normal mean" rng
    (fun rng -> R.normal rng ~mu:3.0 ~sigma:2.0)
    ~mean:3.0 ~std:2.0 ~n:50_000;
  let samples = sample_floats rng 50_000 (fun rng -> R.normal rng ~mu:0.0 ~sigma:1.0) in
  check_in_range "normal std" ~lo:0.98 ~hi:1.02 (S.std samples)

let test_exponential_moments () =
  let rng = R.create 22 in
  check_mean_std "exponential mean" rng
    (fun rng -> R.exponential rng ~rate:4.0)
    ~mean:0.25 ~std:0.25 ~n:50_000;
  check_raises_invalid "rate <= 0" (fun () ->
      ignore (R.exponential rng ~rate:0.0))

let test_gamma_moments () =
  let rng = R.create 23 in
  (* shape > 1 branch *)
  check_mean_std "gamma(3,2) mean" rng
    (fun rng -> R.gamma rng ~shape:3.0 ~rate:2.0)
    ~mean:1.5 ~std:(sqrt 0.75) ~n:50_000;
  (* shape < 1 boost branch *)
  check_mean_std "gamma(0.5,1) mean" rng
    (fun rng -> R.gamma rng ~shape:0.5 ~rate:1.0)
    ~mean:0.5 ~std:(sqrt 0.5) ~n:50_000;
  check_raises_invalid "bad shape" (fun () ->
      ignore (R.gamma rng ~shape:0.0 ~rate:1.0))

let test_beta_moments () =
  let rng = R.create 24 in
  check_mean_std "beta(2,6) mean" rng
    (fun rng -> R.beta rng ~a:2.0 ~b:6.0)
    ~mean:0.25 ~std:(sqrt (12.0 /. (64.0 *. 9.0))) ~n:50_000

let test_poisson_moments () =
  let rng = R.create 25 in
  check_mean_std "poisson(4) mean" rng
    (fun rng -> float_of_int (R.poisson rng ~mean:4.0))
    ~mean:4.0 ~std:2.0 ~n:50_000;
  (* The additive-splitting branch for large means. *)
  check_mean_std "poisson(900) mean" rng
    (fun rng -> float_of_int (R.poisson rng ~mean:900.0))
    ~mean:900.0 ~std:30.0 ~n:5_000;
  Alcotest.(check int) "poisson 0" 0 (R.poisson rng ~mean:0.0)

let test_binomial_moments () =
  let rng = R.create 26 in
  check_mean_std "binomial(100, 0.3) mean" rng
    (fun rng -> float_of_int (R.binomial rng ~n:100 ~p:0.3))
    ~mean:30.0 ~std:(sqrt 21.0) ~n:30_000;
  (* Geometric-skip branch: tiny p, large n. *)
  check_mean_std "binomial(100000, 1e-4) mean" rng
    (fun rng -> float_of_int (R.binomial rng ~n:100_000 ~p:1e-4))
    ~mean:10.0 ~std:(sqrt 10.0) ~n:20_000;
  (* p > 0.5 reflection branch. *)
  check_mean_std "binomial(50, 0.9) mean" rng
    (fun rng -> float_of_int (R.binomial rng ~n:50 ~p:0.9))
    ~mean:45.0 ~std:(sqrt 4.5) ~n:30_000;
  Alcotest.(check int) "n=0" 0 (R.binomial rng ~n:0 ~p:0.4);
  Alcotest.(check int) "p=1" 17 (R.binomial rng ~n:17 ~p:1.0)

let test_geometric_moments () =
  let rng = R.create 27 in
  (* failures before first success: mean (1-p)/p *)
  check_mean_std "geometric(0.2) mean" rng
    (fun rng -> float_of_int (R.geometric rng ~p:0.2))
    ~mean:4.0 ~std:(sqrt (0.8 /. 0.04)) ~n:50_000;
  Alcotest.(check int) "p=1" 0 (R.geometric rng ~p:1.0)

let test_bernoulli_edge () =
  let rng = R.create 28 in
  check_true "p=0 never" (not (R.bernoulli rng 0.0));
  check_true "p=1 always" (R.bernoulli rng 1.0)

let test_fill_bit_compat () =
  (* The contract of the batched kernels: [fill_xs t buf ~pos ~len] writes
     exactly what [len] scalar [xs t] calls would return and leaves the
     generator in the same state.  257 draws crosses nothing special — it
     just exercises many rejection-loop paths of the polar method. *)
  let n = 257 in
  let check_kernel name fill scalar =
    let a = R.create 4242 and b = R.create 4242 in
    let buf = Numerics.Columns.unsafe_data (Numerics.Columns.make (n + 4) nan) in
    fill a buf 3 n;
    for i = 0 to n - 1 do
      let expected = scalar b in
      if Int64.bits_of_float (Bigarray.Array1.get buf (3 + i))
         <> Int64.bits_of_float expected
      then Alcotest.failf "%s: value diverged at draw %d" name i
    done;
    if R.bits64 a <> R.bits64 b then
      Alcotest.failf "%s: final state diverged" name;
    check_true (name ^ " leaves prefix and suffix untouched")
      (Float.is_nan (Bigarray.Array1.get buf 0)
      && Float.is_nan (Bigarray.Array1.get buf (n + 3)))
  in
  check_kernel "fill_floats"
    (fun t buf pos len -> R.fill_floats t buf ~pos ~len)
    R.float;
  check_kernel "fill_floats_pos"
    (fun t buf pos len -> R.fill_floats_pos t buf ~pos ~len)
    R.float_pos;
  check_kernel "fill_uniforms"
    (fun t buf pos len -> R.fill_uniforms t buf ~pos ~len ~a:(-2.0) ~b:3.0)
    (fun t -> R.uniform t (-2.0) 3.0);
  check_kernel "fill_exponentials"
    (fun t buf pos len -> R.fill_exponentials t buf ~pos ~len ~rate:4.0)
    (fun t -> R.exponential t ~rate:4.0);
  check_kernel "fill_normals"
    (fun t buf pos len -> R.fill_normals t buf ~pos ~len ~mu:1.0 ~sigma:2.0)
    (fun t -> R.normal t ~mu:1.0 ~sigma:2.0);
  check_kernel "fill_lognormals"
    (fun t buf pos len -> R.fill_lognormals t buf ~pos ~len ~mu:(-9.0) ~sigma:0.7)
    (fun t -> R.lognormal t ~mu:(-9.0) ~sigma:0.7)

let test_fill_edges () =
  let rng = R.create 5 in
  let buf = Numerics.Columns.unsafe_data (Numerics.Columns.make 4 0.0) in
  let before = R.copy rng in
  R.fill_floats rng buf ~pos:2 ~len:0;
  check_true "len 0 does not advance the state"
    (R.bits64 rng = R.bits64 before);
  check_raises_invalid "negative pos" (fun () ->
      R.fill_floats rng buf ~pos:(-1) ~len:1);
  check_raises_invalid "negative len" (fun () ->
      R.fill_floats rng buf ~pos:0 ~len:(-1));
  check_raises_invalid "past the end" (fun () ->
      R.fill_floats rng buf ~pos:2 ~len:3);
  check_raises_invalid "rate <= 0" (fun () ->
      R.fill_exponentials rng buf ~pos:0 ~len:1 ~rate:0.0)

let test_shuffle_choose () =
  let rng = R.create 29 in
  let arr = Array.init 10 (fun i -> i) in
  let orig = Array.copy arr in
  R.shuffle rng arr;
  Array.sort compare arr;
  Alcotest.(check (array int)) "shuffle is a permutation" orig arr;
  let one = R.choose rng [| 42 |] in
  Alcotest.(check int) "choose singleton" 42 one;
  check_raises_invalid "choose empty" (fun () -> ignore (R.choose rng [||]))

let suite =
  [ case "determinism by seed" test_determinism;
    case "copy and split" test_copy_and_split;
    case "split_n stream family" test_split_n;
    case "split-stream independence" test_split_independence;
    case "float ranges" test_float_range;
    case "int uniformity" test_int_uniformity;
    case "normal sampler moments" test_normal_moments;
    case "exponential sampler moments" test_exponential_moments;
    case "gamma sampler moments (both branches)" test_gamma_moments;
    case "beta sampler moments" test_beta_moments;
    case "poisson sampler moments (both branches)" test_poisson_moments;
    case "binomial sampler moments (all branches)" test_binomial_moments;
    case "geometric sampler moments" test_geometric_moments;
    case "bernoulli edge probabilities" test_bernoulli_edge;
    case "batched kernels match scalar draws bitwise" test_fill_bit_compat;
    case "batched kernel edge cases" test_fill_edges;
    case "shuffle and choose" test_shuffle_choose ]
