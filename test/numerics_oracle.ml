(* Reference implementations of the population phase kernels, kept as
   oracles for the allocation-free production code: the t-digest whose
   flush copies its buffer with [Array.sub] and sorts it with the
   polymorphic [Array.sort Float.compare], and [erf]/[erfc] that go
   through the general incomplete gamma with log Gamma(1/2) recomputed
   per call.  Written for clarity, not speed; the float operations are the
   production ones in the production order, so results must agree bit for
   bit. *)

module Special = struct
  let gamma_eps = 1e-15
  let gamma_fpmin = 1e-300
  let log_gamma = Numerics.Special.log_gamma

  let gamma_p_series a x =
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
    !sum *. exp ((-.x) +. (a *. log x) -. log_gamma a)

  let gamma_q_cf a x =
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
    !h *. exp ((-.x) +. (a *. log x) -. log_gamma a)

  let gamma_p a x =
    if x = 0.0 then 0.0
    else if x < a +. 1.0 then gamma_p_series a x
    else 1.0 -. gamma_q_cf a x

  let gamma_q a x =
    if x = 0.0 then 1.0
    else if x < a +. 1.0 then 1.0 -. gamma_p_series a x
    else gamma_q_cf a x

  let erf x =
    if x >= 0.0 then (if x = 0.0 then 0.0 else gamma_p 0.5 (x *. x))
    else -.gamma_p 0.5 (x *. x)

  let erfc x = if x < 0.5 then 1.0 -. erf x else gamma_q 0.5 (x *. x)

  let norm_cdf x =
    let sqrt2 = sqrt 2.0 in
    if x >= 0.0 then 1.0 -. (0.5 *. erfc (x /. sqrt2))
    else 0.5 *. erfc (-.x /. sqrt2)
end

(* The merging t-digest over plain float arrays.  State is exposed as
   [to_columns], in the layout [Numerics.Sketch.of_columns] reads, so a
   test can compare states directly and query the oracle through the
   production [quantile]/[cdf]. *)
module Sketch = struct
  type t = {
    compression : float;
    mutable mean : float array;
    mutable weight : float array;
    mutable total : float;
    buf : float array;
    mutable n_buf : int;
    mutable lo : float;
    mutable hi : float;
  }

  let create ?(compression = 200.0) () =
    {
      compression;
      mean = [||];
      weight = [||];
      total = 0.0;
      buf = Array.make (4 * int_of_float (ceil compression)) 0.0;
      n_buf = 0;
      lo = infinity;
      hi = neg_infinity;
    }

  let two_pi = 2.0 *. Numerics.Special.pi
  let k_of_q t q = t.compression /. two_pi *. asin ((2.0 *. q) -. 1.0)

  let q_limit_after t q =
    let k = k_of_q t q +. 1.0 in
    if k >= t.compression /. 4.0 then 1.0
    else 0.5 *. (sin (two_pi *. k /. t.compression) +. 1.0)

  (* Greedy left-to-right compression of a mean-sorted (mean, weight)
     sequence. *)
  let compress t ms ws total =
    let out_m = ref [] and out_w = ref [] in
    let m = Array.length ms in
    if m > 0 then begin
      let cur_mean = ref ms.(0) and cur_w = ref ws.(0) in
      let w_done = ref 0.0 in
      let q_limit = ref (q_limit_after t 0.0) in
      for i = 1 to m - 1 do
        let mean = ms.(i) and w = ws.(i) in
        if (!w_done +. !cur_w +. w) /. total <= !q_limit then begin
          let w' = !cur_w +. w in
          cur_mean := !cur_mean +. ((mean -. !cur_mean) *. (w /. w'));
          cur_w := w'
        end
        else begin
          out_m := !cur_mean :: !out_m;
          out_w := !cur_w :: !out_w;
          w_done := !w_done +. !cur_w;
          q_limit := q_limit_after t (!w_done /. total);
          cur_mean := mean;
          cur_w := w
        end
      done;
      out_m := !cur_mean :: !out_m;
      out_w := !cur_w :: !out_w
    end;
    t.mean <- Array.of_list (List.rev !out_m);
    t.weight <- Array.of_list (List.rev !out_w);
    t.total <- total

  (* Merge two mean-sorted sequences; ties take the left one first. *)
  let merge_sorted (am, aw) (bm, bw) =
    let na = Array.length am and nb = Array.length bm in
    let ms = Array.make (na + nb) 0.0 and ws = Array.make (na + nb) 0.0 in
    let i = ref 0 and j = ref 0 in
    for k = 0 to na + nb - 1 do
      if !i < na && (!j >= nb || Float.compare am.(!i) bm.(!j) <= 0) then begin
        ms.(k) <- am.(!i);
        ws.(k) <- aw.(!i);
        incr i
      end
      else begin
        ms.(k) <- bm.(!j);
        ws.(k) <- bw.(!j);
        incr j
      end
    done;
    (ms, ws)

  let flush t =
    if t.n_buf > 0 then begin
      let b = Array.sub t.buf 0 t.n_buf in
      Array.sort Float.compare b;
      let ms, ws =
        merge_sorted (t.mean, t.weight) (b, Array.make t.n_buf 1.0)
      in
      let total = t.total +. float_of_int t.n_buf in
      t.n_buf <- 0;
      compress t ms ws total
    end

  let add t x =
    if x <> x then invalid_arg "Numerics_oracle.Sketch.add: NaN";
    if x < t.lo then t.lo <- x;
    if x > t.hi then t.hi <- x;
    t.buf.(t.n_buf) <- x;
    t.n_buf <- t.n_buf + 1;
    if t.n_buf = Array.length t.buf then flush t

  let merge_into ~into src =
    flush into;
    flush src;
    into.lo <- min into.lo src.lo;
    into.hi <- max into.hi src.hi;
    let ms, ws = merge_sorted (into.mean, into.weight) (src.mean, src.weight) in
    let total = into.total +. src.total in
    if Array.length ms > 0 then compress into ms ws total
    else into.total <- total

  let to_columns t =
    flush t;
    let col = Numerics.Columns.of_array in
    [ ("mean", col t.mean);
      ("weight", col t.weight);
      ("meta", col [| t.compression; t.total; t.lo; t.hi |]) ]
end
