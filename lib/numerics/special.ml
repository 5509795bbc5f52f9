let pi = 4.0 *. atan 1.0
let log1p = Stdlib.log1p
let expm1 = Stdlib.expm1

let log_sum_exp a b =
  if a = neg_infinity then b
  else if b = neg_infinity then a
  else if a >= b then a +. log1p (exp (b -. a))
  else b +. log1p (exp (a -. b))

(* Lanczos approximation, g = 7, n = 9 coefficients (Boost/GSL standard set). *)
let lanczos_g = 7.0

let lanczos_coef =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if x <= 0.0 then invalid_arg "Special.log_gamma: x <= 0"
  else if x < 0.5 then
    (* Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x). *)
    log (pi /. sin (pi *. x)) -. log_gamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let acc = ref lanczos_coef.(0) in
    for i = 1 to Array.length lanczos_coef - 1 do
      acc := !acc +. (lanczos_coef.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2.0 *. pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

let gamma x = exp (log_gamma x)

(* Regularised incomplete gamma: series for x < a + 1, continued fraction
   otherwise (Numerical Recipes gser/gcf, tightened tolerances).  Both
   helpers take [lg] = log_gamma a from the caller, so [erf]/[erfc] can
   pass a constant instead of re-running the Lanczos sum per call. *)
let gamma_eps = 1e-15
let gamma_fpmin = 1e-300

let gamma_p_series a x lg =
  let ap = ref a in
  let sum = ref (1.0 /. a) in
  let del = ref !sum in
  let continue_ = ref true in
  let iter = ref 0 in
  while !continue_ && !iter < 10_000 do
    incr iter;
    ap := !ap +. 1.0;
    del := !del *. x /. !ap;
    sum := !sum +. !del;
    if abs_float !del < abs_float !sum *. gamma_eps then continue_ := false
  done;
  !sum *. exp ((-.x) +. (a *. log x) -. lg)

let gamma_q_cf a x lg =
  let b = ref (x +. 1.0 -. a) in
  let c = ref (1.0 /. gamma_fpmin) in
  let d = ref (1.0 /. !b) in
  let h = ref !d in
  let continue_ = ref true in
  let i = ref 1 in
  while !continue_ && !i < 10_000 do
    let an = -.float_of_int !i *. (float_of_int !i -. a) in
    b := !b +. 2.0;
    d := (an *. !d) +. !b;
    if abs_float !d < gamma_fpmin then d := gamma_fpmin;
    c := !b +. (an /. !c);
    if abs_float !c < gamma_fpmin then c := gamma_fpmin;
    d := 1.0 /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if abs_float (del -. 1.0) < gamma_eps then continue_ := false;
    incr i
  done;
  !h *. exp ((-.x) +. (a *. log x) -. lg)

let gamma_p a x =
  if a <= 0.0 then invalid_arg "Special.gamma_p: a <= 0";
  if x < 0.0 then invalid_arg "Special.gamma_p: x < 0";
  if x = 0.0 then 0.0
  else if x < a +. 1.0 then gamma_p_series a x (log_gamma a)
  else 1.0 -. gamma_q_cf a x (log_gamma a)

let gamma_q a x =
  if a <= 0.0 then invalid_arg "Special.gamma_q: a <= 0";
  if x < 0.0 then invalid_arg "Special.gamma_q: x < 0";
  if x = 0.0 then 1.0
  else if x < a +. 1.0 then 1.0 -. gamma_p_series a x (log_gamma a)
  else gamma_q_cf a x (log_gamma a)

(* erf x = P(1/2, x^2) and erfc x = Q(1/2, x^2): [gamma_p 0.5] and
   [gamma_q 0.5] inlined with log Gamma(1/2) computed once, so every fp
   operation (and every bit) is the one the general path performs.
   [erfc] only reaches Q with x^2 >= 1/4 (or NaN), so it needs no zero
   test. *)
let log_gamma_half = log_gamma 0.5

let gamma_p_half z =
  if z = 0.0 then 0.0
  else if z < 1.5 then gamma_p_series 0.5 z log_gamma_half
  else 1.0 -. gamma_q_cf 0.5 z log_gamma_half

let erf x =
  if x >= 0.0 then gamma_p_half (x *. x) else -.gamma_p_half (x *. x)

let erfc x =
  if x < 0.5 then 1.0 -. erf x
  else begin
    let z = x *. x in
    if z < 1.5 then 1.0 -. gamma_p_series 0.5 z log_gamma_half
    else gamma_q_cf 0.5 z log_gamma_half
  end

let sqrt2 = sqrt 2.0

let norm_cdf x =
  if x >= 0.0 then 1.0 -. (0.5 *. erfc (x /. sqrt2))
  else 0.5 *. erfc (-.x /. sqrt2)

(* Acklam's rational approximation for the normal quantile, followed by one
   Halley refinement using the high-accuracy [norm_cdf]. *)
let acklam_quantile p =
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let poly5 k q =
    ((((k.(0) *. q +. k.(1)) *. q +. k.(2)) *. q +. k.(3)) *. q +. k.(4)) *. q
    +. k.(5)
  in
  let poly4_1 k q =
    (((k.(0) *. q +. k.(1)) *. q +. k.(2)) *. q +. k.(3)) *. q +. 1.0
  in
  let p_low = 0.02425 in
  if p < p_low then begin
    let q = sqrt (-2.0 *. log p) in
    poly5 c q /. poly4_1 d q
  end
  else if p <= 1.0 -. p_low then begin
    let q = p -. 0.5 in
    let r = q *. q in
    let num = poly5 a r *. q in
    let den =
      ((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
      *. r
      +. 1.0
    in
    num /. den
  end
  else begin
    let q = sqrt (-2.0 *. log (1.0 -. p)) in
    -.(poly5 c q /. poly4_1 d q)
  end

let norm_quantile p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Special.norm_quantile: p not in (0,1)";
  let x = acklam_quantile p in
  (* Halley refinement: e = Phi(x) - p; u = e / phi(x). *)
  let e = norm_cdf x -. p in
  let u = e *. sqrt (2.0 *. pi) *. exp (x *. x /. 2.0) in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))

let log_beta a b =
  if a <= 0.0 || b <= 0.0 then invalid_arg "Special.log_beta: a, b must be > 0";
  log_gamma a +. log_gamma b -. log_gamma (a +. b)

(* Continued fraction for the incomplete beta (Numerical Recipes betacf). *)
let betacf a b x =
  let qab = a +. b in
  let qap = a +. 1.0 in
  let qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if abs_float !d < gamma_fpmin then d := gamma_fpmin;
  d := 1.0 /. !d;
  let h = ref !d in
  let m = ref 1 in
  let continue_ = ref true in
  while !continue_ && !m <= 10_000 do
    let mf = float_of_int !m in
    let m2 = 2.0 *. mf in
    let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1.0 +. (aa *. !d);
    if abs_float !d < gamma_fpmin then d := gamma_fpmin;
    c := 1.0 +. (aa /. !c);
    if abs_float !c < gamma_fpmin then c := gamma_fpmin;
    d := 1.0 /. !d;
    h := !h *. !d *. !c;
    let aa = -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1.0 +. (aa *. !d);
    if abs_float !d < gamma_fpmin then d := gamma_fpmin;
    c := 1.0 +. (aa /. !c);
    if abs_float !c < gamma_fpmin then c := gamma_fpmin;
    d := 1.0 /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if abs_float (del -. 1.0) < gamma_eps then continue_ := false;
    incr m
  done;
  !h

let beta_inc a b x =
  if a <= 0.0 || b <= 0.0 then invalid_arg "Special.beta_inc: a, b must be > 0";
  if x < 0.0 || x > 1.0 then invalid_arg "Special.beta_inc: x not in [0,1]";
  if x = 0.0 then 0.0
  else if x = 1.0 then 1.0
  else begin
    let lbeta =
      (a *. log x) +. (b *. log1p (-.x)) -. log_beta a b
    in
    let front = exp lbeta in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then front *. betacf a b x /. a
    else 1.0 -. (front *. betacf b a (1.0 -. x) /. b)
  end

let beta_inc_inv a b p =
  if p <= 0.0 then 0.0
  else if p >= 1.0 then 1.0
  else begin
    (* Bisection warm-up then Newton; the CDF is strictly monotone. *)
    let lo = ref 0.0 and hi = ref 1.0 in
    let x = ref 0.5 in
    for _ = 1 to 200 do
      let f = beta_inc a b !x -. p in
      if f > 0.0 then hi := !x else lo := !x;
      (* Newton step when safely interior, else bisection. *)
      let log_pdf =
        ((a -. 1.0) *. log !x) +. ((b -. 1.0) *. log1p (-. !x)) -. log_beta a b
      in
      let step = f /. exp log_pdf in
      let candidate = !x -. step in
      if candidate > !lo && candidate < !hi then x := candidate
      else x := 0.5 *. (!lo +. !hi)
    done;
    !x
  end

let gamma_p_inv a p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Special.gamma_p_inv: p not in [0,1)";
  if p = 0.0 then 0.0
  else begin
    (* Initial guess per Wilson-Hilferty, then safeguarded Newton. *)
    let g = log_gamma a in
    (* Small-x asymptotic P(a, x) ~ x^a / Gamma(a+1), solid whenever the
       Wilson-Hilferty guess collapses (tiny p). *)
    let small_x_guess = exp ((log p +. log_gamma (a +. 1.0)) /. a) in
    let guess =
      if a > 1.0 then begin
        let x = norm_quantile p in
        let t = 1.0 -. (1.0 /. (9.0 *. a)) +. (x /. (3.0 *. sqrt a)) in
        let wh = a *. t *. t *. t in
        if wh > 1e-8 *. a then wh else small_x_guess
      end
      else begin
        let t = 1.0 -. (a *. (0.253 +. (a *. 0.12))) in
        if p < t then small_x_guess
        else 1.0 -. log (1.0 -. ((p -. t) /. (1.0 -. t)))
      end
    in
    let x = ref (max guess 1e-300) in
    let lo = ref 0.0 and hi = ref infinity in
    for _ = 1 to 200 do
      let f = gamma_p a !x -. p in
      if f > 0.0 then hi := !x else lo := !x;
      let log_pdf = ((a -. 1.0) *. log !x) -. !x -. g in
      let step = f /. exp log_pdf in
      let candidate = !x -. step in
      if candidate > !lo && candidate < !hi && Float.is_finite candidate then
        x := candidate
      else if !hi = infinity then x := !x *. 2.0
      else x := 0.5 *. (!lo +. !hi)
    done;
    !x
  end
