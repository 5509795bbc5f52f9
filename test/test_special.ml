open Helpers
module Sp = Numerics.Special

(* Reference values computed with mpmath at 50 digits. *)

let test_erf_values () =
  check_close "erf 0" 0.0 (Sp.erf 0.0);
  check_close ~eps:1e-12 "erf 0.5" 0.5204998778130465 (Sp.erf 0.5);
  check_close ~eps:1e-12 "erf 1" 0.8427007929497149 (Sp.erf 1.0);
  check_close ~eps:1e-12 "erf 2" 0.9953222650189527 (Sp.erf 2.0);
  check_close ~eps:1e-12 "erf -1" (-0.8427007929497149) (Sp.erf (-1.0))

let test_erfc_values () =
  check_close ~eps:1e-12 "erfc 0" 1.0 (Sp.erfc 0.0);
  check_close ~eps:1e-12 "erfc 1" 0.15729920705028513 (Sp.erfc 1.0);
  (* Far tail where 1 - erf would lose everything to cancellation. *)
  check_close ~eps:1e-10 "erfc 5" 1.5374597944280347e-12 (Sp.erfc 5.0);
  check_close ~eps:1e-8 "erfc 8" 1.1224297172982928e-29 (Sp.erfc 8.0)

let test_erf_odd_symmetry =
  qcheck "erf is odd" QCheck2.Gen.(float_bound_inclusive 4.0) (fun x ->
      abs_float (Sp.erf x +. Sp.erf (-.x)) < 1e-12)

let test_erf_erfc_complement =
  qcheck "erf + erfc = 1" QCheck2.Gen.(float_bound_inclusive 4.0) (fun x ->
      abs_float (Sp.erf x +. Sp.erfc x -. 1.0) < 1e-11)

let test_log_gamma_values () =
  check_close ~eps:1e-12 "lgamma 1" 0.0 (Sp.log_gamma 1.0);
  check_close ~eps:1e-12 "lgamma 2" 0.0 (Sp.log_gamma 2.0);
  check_close ~eps:1e-12 "lgamma 5" (log 24.0) (Sp.log_gamma 5.0);
  check_close ~eps:1e-12 "lgamma 0.5" (0.5 *. log Sp.pi) (Sp.log_gamma 0.5);
  (* ln Gamma(10.5) = ln Gamma(0.5) + sum_{k=0}^{9} ln(k + 0.5). *)
  let lg_10_5 =
    let acc = ref (0.5 *. log Sp.pi) in
    for k = 0 to 9 do
      acc := !acc +. log (float_of_int k +. 0.5)
    done;
    !acc
  in
  check_close ~eps:1e-12 "lgamma 10.5" lg_10_5 (Sp.log_gamma 10.5);
  check_close ~eps:1e-10 "lgamma 0.1" 2.252712651734206 (Sp.log_gamma 0.1)

let test_log_gamma_recurrence =
  qcheck "lgamma(x+1) = lgamma(x) + ln x"
    QCheck2.Gen.(map (fun u -> 0.1 +. (20.0 *. u)) (float_bound_inclusive 1.0))
    (fun x ->
      abs_float (Sp.log_gamma (x +. 1.0) -. Sp.log_gamma x -. log x) < 1e-9)

let test_gamma_domain () =
  check_raises_invalid "lgamma 0" (fun () -> Sp.log_gamma 0.0);
  check_raises_invalid "lgamma -1" (fun () -> Sp.log_gamma (-1.0));
  check_raises_invalid "gamma_p a<=0" (fun () -> Sp.gamma_p 0.0 1.0);
  check_raises_invalid "gamma_p x<0" (fun () -> Sp.gamma_p 1.0 (-1.0))

let test_gamma_p_values () =
  (* P(1, x) = 1 - exp(-x). *)
  check_close ~eps:1e-12 "P(1, 0.7)" (1.0 -. exp (-0.7)) (Sp.gamma_p 1.0 0.7);
  check_close ~eps:1e-11 "P(3, 2.5)" 0.45618688411675275 (Sp.gamma_p 3.0 2.5);
  check_close ~eps:1e-11 "P(0.5, 0.25)" 0.5204998778130465 (Sp.gamma_p 0.5 0.25);
  check_close ~eps:1e-11 "Q(3, 2.5)" (1.0 -. 0.45618688411675275)
    (Sp.gamma_q 3.0 2.5);
  check_close "P(2, 0)" 0.0 (Sp.gamma_p 2.0 0.0);
  check_close "Q(2, 0)" 1.0 (Sp.gamma_q 2.0 0.0)

let test_gamma_pq_complement =
  let gen =
    QCheck2.Gen.(
      pair
        (map (fun u -> 0.1 +. (15.0 *. u)) (float_bound_inclusive 1.0))
        (map (fun u -> 30.0 *. u) (float_bound_inclusive 1.0)))
  in
  qcheck "P + Q = 1" gen (fun (a, x) ->
      abs_float (Sp.gamma_p a x +. Sp.gamma_q a x -. 1.0) < 1e-10)

let test_gamma_p_inv_roundtrip =
  let gen =
    QCheck2.Gen.(
      pair
        (map (fun u -> 0.2 +. (10.0 *. u)) (float_bound_inclusive 1.0))
        (map (fun u -> 0.001 +. (0.998 *. u)) (float_bound_inclusive 1.0)))
  in
  qcheck "gamma_p_inv inverts gamma_p" gen (fun (a, p) ->
      let x = Sp.gamma_p_inv a p in
      abs_float (Sp.gamma_p a x -. p) < 1e-8)

let test_gamma_p_inv_extreme_tails () =
  (* Regression: the Wilson-Hilferty seed collapses for tiny p; the solver
     must still invert far into both tails. *)
  List.iter
    (fun (a, p) ->
      let x = Sp.gamma_p_inv a p in
      let back = Sp.gamma_p a x in
      if abs_float (back -. p) > 1e-6 *. p then
        Alcotest.failf "P(%g, inv(%g)) = %g (relative error too large)" a p
          back)
    [ (2.0, 1e-9); (2.0, 1.0 -. 1e-9); (0.5, 1e-12); (10.0, 1e-10);
      (1.0, 1e-15) ]

let test_norm_cdf_values () =
  check_close ~eps:1e-12 "Phi 0" 0.5 (Sp.norm_cdf 0.0);
  check_close ~eps:1e-12 "Phi 1.96" 0.9750021048517795 (Sp.norm_cdf 1.96);
  check_close ~eps:1e-12 "Phi -1.96" 0.024997895148220435 (Sp.norm_cdf (-1.96));
  check_close ~eps:1e-10 "Phi -6" 9.865876450376946e-10 (Sp.norm_cdf (-6.0))

let test_norm_quantile_values () =
  check_close ~eps:1e-12 "quantile 0.5" 0.0 (Sp.norm_quantile 0.5);
  check_close ~eps:1e-11 "quantile 0.975" 1.9599639845400545
    (Sp.norm_quantile 0.975);
  check_close ~eps:1e-10 "quantile 1e-6" (-4.753424308822899)
    (Sp.norm_quantile 1e-6);
  check_raises_invalid "quantile 0" (fun () -> Sp.norm_quantile 0.0);
  check_raises_invalid "quantile 1" (fun () -> Sp.norm_quantile 1.0)

let test_norm_roundtrip =
  qcheck "Phi(Phi^-1(p)) = p"
    QCheck2.Gen.(map (fun u -> 1e-8 +. ((1.0 -. 2e-8) *. u)) (float_bound_inclusive 1.0))
    (fun p ->
      let x = Sp.norm_quantile p in
      abs_float (Sp.norm_cdf x -. p) < 1e-11)

let test_beta_values () =
  check_close ~eps:1e-12 "log_beta 1 1" 0.0 (Sp.log_beta 1.0 1.0);
  check_close ~eps:1e-12 "log_beta 2 3" (log (1.0 /. 12.0)) (Sp.log_beta 2.0 3.0);
  (* I_x(2,3) has closed form 6x^2 - 8x^3 + 3x^4. *)
  let closed x = (6.0 *. x *. x) -. (8.0 *. x ** 3.0) +. (3.0 *. x ** 4.0) in
  check_close ~eps:1e-11 "I_0.4(2,3)" (closed 0.4) (Sp.beta_inc 2.0 3.0 0.4);
  check_close ~eps:1e-11 "I_0.9(2,3)" (closed 0.9) (Sp.beta_inc 2.0 3.0 0.9);
  check_close "I_0(2,3)" 0.0 (Sp.beta_inc 2.0 3.0 0.0);
  check_close "I_1(2,3)" 1.0 (Sp.beta_inc 2.0 3.0 1.0)

let test_beta_symmetry =
  let gen =
    QCheck2.Gen.(
      triple
        (map (fun u -> 0.2 +. (8.0 *. u)) (float_bound_inclusive 1.0))
        (map (fun u -> 0.2 +. (8.0 *. u)) (float_bound_inclusive 1.0))
        (float_bound_inclusive 1.0))
  in
  qcheck "I_x(a,b) = 1 - I_(1-x)(b,a)" gen (fun (a, b, x) ->
      abs_float (Sp.beta_inc a b x -. (1.0 -. Sp.beta_inc b a (1.0 -. x)))
      < 1e-9)

let test_beta_inv_roundtrip =
  let gen =
    QCheck2.Gen.(
      triple
        (map (fun u -> 0.3 +. (6.0 *. u)) (float_bound_inclusive 1.0))
        (map (fun u -> 0.3 +. (6.0 *. u)) (float_bound_inclusive 1.0))
        (map (fun u -> 0.001 +. (0.998 *. u)) (float_bound_inclusive 1.0)))
  in
  qcheck "beta_inc_inv inverts beta_inc" gen (fun (a, b, p) ->
      let x = Sp.beta_inc_inv a b p in
      abs_float (Sp.beta_inc a b x -. p) < 1e-8)

let test_log_sum_exp () =
  check_close "lse of equal" (log 2.0 +. 5.0) (Sp.log_sum_exp 5.0 5.0);
  check_close "lse neg_inf left" 3.0 (Sp.log_sum_exp neg_infinity 3.0);
  check_close "lse neg_inf right" 3.0 (Sp.log_sum_exp 3.0 neg_infinity);
  check_close ~eps:1e-12 "lse asymmetric" (log (exp 1.0 +. exp 2.0))
    (Sp.log_sum_exp 1.0 2.0);
  (* No overflow for large magnitudes. *)
  check_close "lse large" 1000.0 (Sp.log_sum_exp 1000.0 (-1000.0))

(* Bitwise agreement with the un-hoisted reference (log Gamma(1/2)
   recomputed inside every call): hoisting the constant must not move a
   bit of erf, erfc, norm_cdf or the incomplete gammas. *)
module O = Numerics_oracle.Special

let same_bits name f g x =
  let a = f x and b = g x in
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    QCheck2.Test.fail_reportf "%s %h: %h vs oracle %h" name x a b;
  true

let matches_oracle x =
  same_bits "erf" Sp.erf O.erf x
  && same_bits "erfc" Sp.erfc O.erfc x
  && same_bits "norm_cdf" Sp.norm_cdf O.norm_cdf x

let test_erf_oracle_edges () =
  let edges =
    [ 0.0; -0.0; 1e-200; -1e-200; 5e-324; -5e-324; infinity; neg_infinity;
      Float.nan; 0.5; -0.5; Float.pred 0.5; 1.5; -1.5; 27.0; -40.0; 1e300;
      Float.max_float; Float.min_float ]
    @ List.concat_map
        (fun x -> [ Float.pred x; x; Float.succ x; -.x ])
        [ sqrt 1.5; sqrt 1.5 *. sqrt 2.0; 0.5 *. sqrt 2.0 ]
  in
  List.iter (fun x -> check_true "matches oracle" (matches_oracle x)) edges

let gen_wide =
  QCheck2.Gen.(
    frequency
      [ (3, float_range (-40.0) 40.0); (1, float_range (-3.0) 3.0); (1, float) ])

let test_erf_oracle_bits =
  qcheck ~count:2000 "erf/erfc/norm_cdf bitwise = un-hoisted oracle" gen_wide
    matches_oracle

let test_gamma_oracle_bits =
  qcheck ~count:500 "gamma_p/gamma_q bitwise = oracle"
    QCheck2.Gen.(pair (float_range 0.05 30.0) (float_range 0.0 60.0))
    (fun (a, x) ->
      same_bits "gamma_p" (Sp.gamma_p a) (O.gamma_p a) x
      && same_bits "gamma_q" (Sp.gamma_q a) (O.gamma_q a) x)

let suite =
  [ case "erf values" test_erf_values;
    case "erfc values (incl. far tail)" test_erfc_values;
    test_erf_odd_symmetry;
    test_erf_erfc_complement;
    case "log_gamma values" test_log_gamma_values;
    test_log_gamma_recurrence;
    case "gamma domain errors" test_gamma_domain;
    case "incomplete gamma values" test_gamma_p_values;
    test_gamma_pq_complement;
    test_gamma_p_inv_roundtrip;
    case "gamma_p_inv extreme tails" test_gamma_p_inv_extreme_tails;
    case "normal cdf values" test_norm_cdf_values;
    case "normal quantile values" test_norm_quantile_values;
    test_norm_roundtrip;
    case "incomplete beta values" test_beta_values;
    test_beta_symmetry;
    test_beta_inv_roundtrip;
    case "log_sum_exp" test_log_sum_exp;
    case "erf/erfc/norm_cdf edge values bitwise = oracle" test_erf_oracle_edges;
    test_erf_oracle_bits;
    test_gamma_oracle_bits ]
