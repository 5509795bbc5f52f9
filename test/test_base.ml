open Helpers

let test_of_grid_pdf_normalises () =
  (* Unnormalised triangle density on [0, 2]. *)
  let grid = Numerics.Interp.linspace 0.0 2.0 201 in
  let pdf x = if x <= 1.0 then x else 2.0 -. x in
  let d, z = Dist.of_grid_pdf ~name:"triangle" ~grid ~pdf () in
  check_close ~eps:1e-6 "normalising constant" 1.0 z;
  check_close ~eps:1e-6 "cdf at peak" 0.5 (d.cdf 1.0);
  check_close ~eps:1e-4 "mean" 1.0 d.mean;
  check_close ~eps:1e-3 "mode" 1.0 (Option.get d.mode);
  check_close "cdf below support" 0.0 (d.cdf (-1.0));
  check_close "cdf above support" 1.0 (d.cdf 3.0);
  check_close "pdf outside" 0.0 (d.pdf 5.0)

let test_of_grid_pdf_scaled () =
  let grid = Numerics.Interp.linspace 0.0 1.0 101 in
  let d, z = Dist.of_grid_pdf ~name:"flat*7" ~grid ~pdf:(fun _ -> 7.0) () in
  check_close ~eps:1e-9 "z picks up the scale" 7.0 z;
  check_close ~eps:1e-9 "density renormalised" 1.0 (d.pdf 0.5)

let test_of_grid_pdf_errors () =
  let grid = Numerics.Interp.linspace 0.0 1.0 101 in
  check_raises_invalid "tiny grid" (fun () ->
      ignore (Dist.of_grid_pdf ~name:"x" ~grid:[| 0.0; 1.0 |] ~pdf:(fun _ -> 1.0) ()));
  check_raises_invalid "negative density" (fun () ->
      ignore (Dist.of_grid_pdf ~name:"x" ~grid ~pdf:(fun _ -> -1.0) ()));
  check_raises_invalid "zero mass" (fun () ->
      ignore (Dist.of_grid_pdf ~name:"x" ~grid ~pdf:(fun _ -> 0.0) ()));
  check_raises_invalid "non-increasing grid" (fun () ->
      ignore
        (Dist.of_grid_pdf ~name:"x"
           ~grid:(Array.make 10 1.0)
           ~pdf:(fun _ -> 1.0) ()))

let test_grid_matches_closed_form () =
  (* Rebuild a lognormal from its own density on a grid; quantiles must
     agree with the closed form. *)
  let exact = Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.9 in
  let grid =
    Numerics.Interp.logspace (exact.quantile 1e-9)
      (exact.quantile (1.0 -. 1e-9))
      2001
  in
  let d, _ = Dist.of_grid_pdf ~name:"ln-grid" ~grid ~pdf:exact.pdf () in
  List.iter
    (fun p ->
      let scale = exact.quantile p in
      if abs_float (d.quantile p -. scale) > 0.01 *. scale then
        Alcotest.failf "quantile %g: %g vs %g" p (d.quantile p) scale)
    [ 0.05; 0.25; 0.5; 0.75; 0.95 ];
  check_close ~eps:5e-3 "mean" exact.mean d.mean

let test_expect () =
  let d = Dist.Normal.make ~mu:1.0 ~sigma:2.0 in
  check_close ~eps:1e-6 "E[x]" 1.0 (Dist.expect d (fun x -> x));
  check_close ~eps:1e-5 "E[x^2]" 5.0 (Dist.expect d (fun x -> x *. x));
  let ln = Dist.Lognormal.of_mode_sigma ~mode:3e-3 ~sigma:0.9 in
  check_close ~eps:1e-5 "lognormal E[x] via expect" ln.mean
    (Dist.expect ln (fun x -> x))

let test_survival_interval () =
  let d = Dist.Uniform_d.make ~lo:0.0 ~hi:1.0 in
  check_close "survival" 0.7 (Dist.survival d 0.3);
  check_close "interval" 0.4 (Dist.interval_prob d 0.2 0.6);
  check_close "std" (sqrt (1.0 /. 12.0)) (Dist.std d)

let test_check_prob () =
  check_raises_invalid "p = 0" (fun () -> Dist.check_prob 0.0);
  check_raises_invalid "p = 1" (fun () -> Dist.check_prob 1.0);
  Dist.check_prob 0.5

let test_sample_into_replays_scalar () =
  (* [sample_into] writes exactly what [len] scalar [sample] calls return
     and leaves the generator where they would: the closed-form families
     through the batched RNG kernels, everything else through the generic
     loop. *)
  let n = 300 in
  let check (d : Dist.t) =
    let col = Numerics.Columns.make (n + 2) nan in
    let a = Numerics.Rng.create 515 and b = Numerics.Rng.create 515 in
    Dist.sample_into d a (Numerics.Columns.unsafe_data col) ~pos:1 ~len:n;
    for i = 0 to n - 1 do
      let expected = d.sample b in
      if
        Int64.bits_of_float (Numerics.Columns.get col (i + 1))
        <> Int64.bits_of_float expected
      then Alcotest.failf "%s: draw %d diverged" d.name i
    done;
    check_true (d.name ^ ": same final state")
      (Numerics.Rng.bits64 a = Numerics.Rng.bits64 b);
    check_true (d.name ^ ": neighbours untouched")
      (Float.is_nan (Numerics.Columns.get col 0)
      && Float.is_nan (Numerics.Columns.get col (n + 1)))
  in
  List.iter check
    [ Dist.Normal.make ~mu:1.0 ~sigma:2.0;
      Dist.Lognormal.make ~mu:(-6.0) ~sigma:0.9;
      Dist.Uniform_d.make ~lo:(-1.0) ~hi:3.0;
      Dist.Exponential_d.make ~rate:2.5;
      Dist.Gamma_d.make ~shape:0.7 ~rate:3.0 ];
  check_raises_invalid "range check" (fun () ->
      Dist.sample_into
        (Dist.Gamma_d.make ~shape:2.0 ~rate:1.0)
        (Numerics.Rng.create 1)
        (Numerics.Columns.unsafe_data (Numerics.Columns.make 4 0.0))
        ~pos:2 ~len:3)

let suite =
  [ case "grid construction normalises" test_of_grid_pdf_normalises;
    case "grid construction reports evidence" test_of_grid_pdf_scaled;
    case "grid construction input validation" test_of_grid_pdf_errors;
    case "grid reproduces closed forms" test_grid_matches_closed_form;
    case "expectation operator" test_expect;
    case "survival / interval / std helpers" test_survival_interval;
    case "probability validation" test_check_prob;
    case "sample_into replays scalar draws" test_sample_into_replays_scalar ]
