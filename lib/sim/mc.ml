type estimate = {
  mean : float;
  std_error : float;
  ci95_lo : float;
  ci95_hi : float;
  n : int;
}

let of_online acc n =
  let mean = Numerics.Summary.Online.mean acc in
  let std_error =
    Numerics.Summary.Online.std acc /. sqrt (float_of_int n)
  in
  {
    mean;
    std_error;
    ci95_lo = mean -. (1.96 *. std_error);
    ci95_hi = mean +. (1.96 *. std_error);
    n;
  }

let estimate ~n rng f =
  if n < 2 then invalid_arg "Mc.estimate: n < 2";
  let acc = Numerics.Summary.Online.create () in
  for _ = 1 to n do
    Numerics.Summary.Online.add acc (f rng)
  done;
  of_online acc n

let probability ~n rng event =
  estimate ~n rng (fun rng -> if event rng then 1.0 else 0.0)

(* Parallel fan-out: one seed expands into [chunks] independent streams in
   chunk order, each chunk accumulates its own Welford state, and the
   accumulators are merged left to right.  Every step is a pure function of
   (seed, chunks, n), so the result is bit-identical at any domain count.

   Each chunk works on a fresh copy of its stream state made *inside* the
   executing domain: the split-stream array itself is only ever read, so
   domains never mutate adjacently-allocated records (false sharing). *)
(* Chunk-count resolution shared by every parallel entry point: an
   explicit [~chunks] wins (and is what the repro layer passes, for
   cross-machine reproducibility); otherwise the oversubscribed
   [Parallel.default_chunks] default applies (CONFCASE_CHUNKS, else
   8 × domains). *)
let resolve_chunks ?pool ?chunks name =
  match chunks with
  | Some c ->
    if c < 1 then invalid_arg (name ^ ": chunks < 1");
    c
  | None -> Numerics.Parallel.default_chunks ?pool ()

let estimate_par ?pool ?chunks ~n ~seed f =
  if n < 2 then invalid_arg "Mc.estimate_par: n < 2";
  let chunks = resolve_chunks ?pool ?chunks "Mc.estimate_par" in
  let sizes = Numerics.Parallel.chunk_sizes ~n ~chunks in
  let streams = Numerics.Rng.split_n (Numerics.Rng.create seed) chunks in
  let body i =
    let rng = Numerics.Rng.copy streams.(i) in
    let acc = Numerics.Summary.Online.create () in
    for _ = 1 to sizes.(i) do
      Numerics.Summary.Online.add acc (f rng)
    done;
    acc
  in
  let total =
    Numerics.Parallel.parallel_for_reduce ?pool ~chunks
      ~init:(Numerics.Summary.Online.create ())
      ~body ~merge:Numerics.Summary.Online.merge
  in
  of_online total n

(* Scratch-buffer segmentation constant for the batched path.  Like
   [chunks], it is part of the stream definition: a fill function may draw
   differently for one segment of 2k than for two segments of 1k (e.g.
   [Mixture.sample_into] batches its selection uniforms per segment), so
   this is a fixed constant rather than a tunable — changing it is a
   stream change, exactly like changing the chunk count. *)
let batch_size = 4096

type batch_fill =
  Numerics.Rng.t -> Numerics.Columns.ba -> pos:int -> len:int -> unit

(* Per-domain scratch column, reused across chunks and calls.  Every slot
   is written by the fill before the fold reads it, so caching the column
   in domain-local storage cannot change any result; what it does do is
   stop the hot path from churning the major heap (a 32 kB buffer per
   chunk per call), which matters under parallelism because every
   collection is a stop-the-world rendezvous of all domains. *)
let scratch_key =
  Domain.DLS.new_key (fun () -> ref (Numerics.Columns.create ~capacity:0 ()))

let domain_scratch len =
  let r = Domain.DLS.get scratch_key in
  if Numerics.Columns.capacity !r < len then
    r := Numerics.Columns.create ~capacity:len ();
  Numerics.Columns.set_length !r len;
  !r

let fill_of_scalar f : batch_fill =
 fun rng buf ~pos ~len ->
  for j = pos to pos + len - 1 do
    Bigarray.Array1.set buf j (f rng)
  done

let estimate_par_batched ?pool ?chunks ~n ~seed make_fill =
  if n < 2 then invalid_arg "Mc.estimate_par_batched: n < 2";
  let chunks = resolve_chunks ?pool ?chunks "Mc.estimate_par_batched" in
  let sizes = Numerics.Parallel.chunk_sizes ~n ~chunks in
  let streams = Numerics.Rng.split_n (Numerics.Rng.create seed) chunks in
  let body i =
    let size = sizes.(i) in
    let acc = Numerics.Summary.Online.create () in
    if size > 0 then begin
      let rng = Numerics.Rng.copy streams.(i) in
      (* Instantiated per chunk, in the executing domain, so any scratch
         state the fill closes over is domain-local. *)
      let fill = make_fill () in
      (* Segment lengths come from [batch_size] alone, so the stream never
         depends on what earlier calls left in domain-local storage. *)
      let seg = min size batch_size in
      let col = domain_scratch seg in
      let buf = Numerics.Columns.unsafe_data col in
      let remaining = ref size in
      while !remaining > 0 do
        let len = min !remaining seg in
        fill rng buf ~pos:0 ~len;
        Numerics.Summary.Online.add_column acc col ~pos:0 ~len;
        remaining := !remaining - len
      done
    end;
    acc
  in
  let total =
    Numerics.Parallel.parallel_for_reduce ?pool ~chunks
      ~init:(Numerics.Summary.Online.create ())
      ~body ~merge:Numerics.Summary.Online.merge
  in
  of_online total n

let probability_par ?pool ?chunks ~n ~seed event =
  estimate_par ?pool ?chunks ~n ~seed (fun rng ->
      if event rng then 1.0 else 0.0)

(* Sketch fan-out: same stream discipline as [estimate_par_batched] — one
   stream per chunk, [batch_size] segments — but each chunk accumulates a
   t-digest instead of a Welford state, and the digests fold in chunk
   order through the allocation-free [Sketch.merge_into] (which recycles
   the accumulator's centroid and scratch columns and is bit-identical to
   [Sketch.merge]).  The merge is deterministic (though only
   approximately associative), and the fold order is fixed by
   [parallel_for_reduce], so the resulting sketch — hence every quantile
   read from it — is a pure function of (seed, chunks, n, compression):
   bit-identical at any domain count. *)
let sketch_par ?pool ?compression ?chunks ~n ~seed make_fill =
  if n < 1 then invalid_arg "Mc.sketch_par: n < 1";
  let chunks = resolve_chunks ?pool ?chunks "Mc.sketch_par" in
  let sizes = Numerics.Parallel.chunk_sizes ~n ~chunks in
  let streams = Numerics.Rng.split_n (Numerics.Rng.create seed) chunks in
  let body i =
    let size = sizes.(i) in
    let sk = Numerics.Sketch.create ?compression () in
    if size > 0 then begin
      let rng = Numerics.Rng.copy streams.(i) in
      let fill = make_fill () in
      let seg = min size batch_size in
      let col = domain_scratch seg in
      let buf = Numerics.Columns.unsafe_data col in
      let remaining = ref size in
      while !remaining > 0 do
        let len = min !remaining seg in
        fill rng buf ~pos:0 ~len;
        Numerics.Sketch.add_column sk col ~pos:0 ~len;
        remaining := !remaining - len
      done
    end;
    sk
  in
  Numerics.Parallel.parallel_for_reduce ?pool ~chunks
    ~init:(Numerics.Sketch.create ?compression ())
    ~body
    ~merge:(fun into sk ->
      Numerics.Sketch.merge_into ~into sk;
      into)

let quantiles_par ?pool ?compression ?chunks ~n ~seed ~ps make_fill =
  let sk = sketch_par ?pool ?compression ?chunks ~n ~seed make_fill in
  Array.map (Numerics.Sketch.quantile sk) ps

(* ------------------------------------------------------------------ *)
(* Importance sampling.

   Draws come from a proposal distribution and are reweighted by
   w(x) = target(x)/proposal(x); the per-chunk state is six running sums
   (n, Σw, Σw², Σwf, Σw²f, Σ(wf)²) plus the largest weight, which is
   enough to finalise both the plain estimator Σwf/n (unbiased when both
   densities are normalised) and the self-normalised ratio Σwf/Σw (exact
   normalising constants cancel), together with the ESS and
   weight-degeneracy diagnostics.  The sums are accumulated in local
   unboxed refs per chunk and merged by componentwise addition in chunk
   order, so the whole record is bit-identical at any domain count for a
   fixed (seed, chunks). *)

type is_estimate = {
  plain : estimate;
  self_norm : estimate;
  ess : float;
  max_weight_share : float;
  sum_weights : float;
}

type is_acc = {
  is_n : int;
  sw : float;
  sw2 : float;
  swf : float;
  sw2f : float;
  swf_2 : float;  (* Σ (w·f)² *)
  wmax : float;
}

let is_acc_zero =
  { is_n = 0; sw = 0.0; sw2 = 0.0; swf = 0.0; sw2f = 0.0; swf_2 = 0.0;
    wmax = 0.0 }

let is_acc_merge a b =
  {
    is_n = a.is_n + b.is_n;
    sw = a.sw +. b.sw;
    sw2 = a.sw2 +. b.sw2;
    swf = a.swf +. b.swf;
    sw2f = a.sw2f +. b.sw2f;
    swf_2 = a.swf_2 +. b.swf_2;
    wmax = Float.max a.wmax b.wmax;
  }

let is_finalize acc =
  let nf = float_of_int acc.is_n in
  let mean_p = acc.swf /. nf in
  let var_p =
    if acc.is_n > 1 then
      Float.max 0.0 ((acc.swf_2 -. (nf *. mean_p *. mean_p)) /. (nf -. 1.0))
    else 0.0
  in
  let se_p = sqrt (var_p /. nf) in
  let plain =
    {
      mean = mean_p;
      std_error = se_p;
      ci95_lo = mean_p -. (1.96 *. se_p);
      ci95_hi = mean_p +. (1.96 *. se_p);
      n = acc.is_n;
    }
  in
  (* Self-normalised mean with the delta-method variance
     Σ w²(f-μ)² / (Σw)², expanded over the accumulated sums. *)
  let mu = acc.swf /. acc.sw in
  let v =
    (acc.swf_2 -. (2.0 *. mu *. acc.sw2f) +. (mu *. mu *. acc.sw2))
    /. (acc.sw *. acc.sw)
  in
  let se_sn = sqrt (Float.max 0.0 v) in
  let self_norm =
    {
      mean = mu;
      std_error = se_sn;
      ci95_lo = mu -. (1.96 *. se_sn);
      ci95_hi = mu +. (1.96 *. se_sn);
      n = acc.is_n;
    }
  in
  {
    plain;
    self_norm;
    ess = acc.sw *. acc.sw /. acc.sw2;
    max_weight_share = acc.wmax /. acc.sw;
    sum_weights = acc.sw;
  }

let estimate_is_weighted ?pool ?chunks ~n ~seed ~proposal ~log_weight f =
  if n < 2 then invalid_arg "Mc.estimate_is: n < 2";
  let chunks = resolve_chunks ?pool ?chunks "Mc.estimate_is" in
  let sizes = Numerics.Parallel.chunk_sizes ~n ~chunks in
  let streams = Numerics.Rng.split_n (Numerics.Rng.create seed) chunks in
  let body i =
    let size = sizes.(i) in
    if size = 0 then is_acc_zero
    else begin
      let rng = Numerics.Rng.copy streams.(i) in
      let seg = min size batch_size in
      let buf = Numerics.Columns.unsafe_data (domain_scratch seg) in
      let sw = ref 0.0 and sw2 = ref 0.0 and swf = ref 0.0 and sw2f = ref 0.0
      and swf_2 = ref 0.0 and wmax = ref 0.0 in
      let remaining = ref size in
      while !remaining > 0 do
        let len = min !remaining seg in
        Dist.sample_into proposal rng buf ~pos:0 ~len;
        for j = 0 to len - 1 do
          let x = Bigarray.Array1.unsafe_get buf j in
          let w = exp (log_weight x) in
          if not (Float.is_finite w) || w < 0.0 then
            invalid_arg
              (Printf.sprintf "Mc.estimate_is: bad weight %g at %g" w x);
          let fx = f x in
          let wf = w *. fx in
          sw := !sw +. w;
          sw2 := !sw2 +. (w *. w);
          swf := !swf +. wf;
          sw2f := !sw2f +. (w *. wf);
          swf_2 := !swf_2 +. (wf *. wf);
          if w > !wmax then wmax := w
        done;
        remaining := !remaining - len
      done;
      { is_n = size; sw = !sw; sw2 = !sw2; swf = !swf; sw2f = !sw2f;
        swf_2 = !swf_2; wmax = !wmax }
    end
  in
  let total =
    Numerics.Parallel.parallel_for_reduce ?pool ~chunks ~init:is_acc_zero
      ~body ~merge:is_acc_merge
  in
  is_finalize total

let estimate_is ?pool ?chunks ~n ~seed ~target ~proposal f =
  estimate_is_weighted ?pool ?chunks ~n ~seed ~proposal
    ~log_weight:(fun x ->
      target.Dist.log_pdf x -. proposal.Dist.log_pdf x)
    f

let probability_is ?pool ?chunks ~n ~seed ~target ~proposal event =
  estimate_is ?pool ?chunks ~n ~seed ~target ~proposal (fun x ->
      if event x then 1.0 else 0.0)

(* ------------------------------------------------------------------ *)
(* Quasi-Monte-Carlo: scrambled Sobol points with randomised replicates.
   Replicate r scrambles its net from stream r of the seed's fan-out, so
   the replicate means are i.i.d. unbiased estimates — their spread is an
   honest error bar — and the whole computation is a pure function of
   (seed, replicates, n, dim): the replicate, not the chunk, is the unit
   of parallel dispatch, merged in replicate order. *)

let estimate_qmc ?pool ?(replicates = 16) ~dim ~n ~seed f =
  if replicates < 2 then invalid_arg "Mc.estimate_qmc: replicates < 2";
  if n < 1 then invalid_arg "Mc.estimate_qmc: n < 1";
  let streams =
    Numerics.Rng.split_n (Numerics.Rng.create seed) replicates
  in
  let body r =
    let rng = Numerics.Rng.copy streams.(r) in
    let sobol = Numerics.Sobol.create ~scramble:rng ~dim () in
    let point = Stdlib.Float.Array.create dim in
    let acc = ref 0.0 in
    for _ = 1 to n do
      Numerics.Sobol.next sobol point;
      acc := !acc +. f point
    done;
    !acc /. float_of_int n
  in
  let acc =
    Numerics.Parallel.parallel_for_reduce ?pool ~chunks:replicates
      ~init:(Numerics.Summary.Online.create ())
      ~body
      ~merge:(fun acc m ->
        Numerics.Summary.Online.add acc m;
        acc)
  in
  let e = of_online acc replicates in
  { e with n = replicates * n }

(* ------------------------------------------------------------------ *)
(* Stratified and antithetic wrappers over the batched uniform stream.
   Both express the integrand as a function of a single uniform (the
   quantile-transform view), which is what makes the draws strata-capable:
   chunk i stratifies its own share — slot j of a size-m chunk maps its
   uniform v to (j + v)/m — so the per-chunk streams stay pure functions
   of (seed, chunks, n) and the chunk-order Welford merge is unchanged. *)

let estimate_par_stratified ?pool ?chunks ~n ~seed f_of_u =
  if n < 2 then invalid_arg "Mc.estimate_par_stratified: n < 2";
  let chunks = resolve_chunks ?pool ?chunks "Mc.estimate_par_stratified" in
  let sizes = Numerics.Parallel.chunk_sizes ~n ~chunks in
  let streams = Numerics.Rng.split_n (Numerics.Rng.create seed) chunks in
  let body i =
    let size = sizes.(i) in
    let acc = Numerics.Summary.Online.create () in
    if size > 0 then begin
      let rng = Numerics.Rng.copy streams.(i) in
      let m = float_of_int size in
      let seg = min size batch_size in
      let col = domain_scratch seg in
      let buf = Numerics.Columns.unsafe_data col in
      let start = ref 0 in
      while !start < size do
        let len = min (size - !start) seg in
        Numerics.Rng.fill_floats rng buf ~pos:0 ~len;
        for k = 0 to len - 1 do
          let u =
            (float_of_int (!start + k) +. Bigarray.Array1.unsafe_get buf k)
            /. m
          in
          Bigarray.Array1.unsafe_set buf k (f_of_u u)
        done;
        Numerics.Summary.Online.add_column acc col ~pos:0 ~len;
        start := !start + len
      done
    end;
    acc
  in
  let total =
    Numerics.Parallel.parallel_for_reduce ?pool ~chunks
      ~init:(Numerics.Summary.Online.create ())
      ~body ~merge:Numerics.Summary.Online.merge
  in
  of_online total n

let estimate_par_antithetic ?pool ?chunks ~n ~seed f_of_u =
  if n < 4 then invalid_arg "Mc.estimate_par_antithetic: n < 4";
  if n land 1 = 1 then invalid_arg "Mc.estimate_par_antithetic: n odd";
  let pairs = n / 2 in
  let chunks = resolve_chunks ?pool ?chunks "Mc.estimate_par_antithetic" in
  let sizes = Numerics.Parallel.chunk_sizes ~n:pairs ~chunks in
  let streams = Numerics.Rng.split_n (Numerics.Rng.create seed) chunks in
  let body i =
    let size = sizes.(i) in
    let acc = Numerics.Summary.Online.create () in
    if size > 0 then begin
      let rng = Numerics.Rng.copy streams.(i) in
      let seg = min size batch_size in
      let col = domain_scratch seg in
      let buf = Numerics.Columns.unsafe_data col in
      let remaining = ref size in
      while !remaining > 0 do
        let len = min !remaining seg in
        Numerics.Rng.fill_floats rng buf ~pos:0 ~len;
        for k = 0 to len - 1 do
          let v = Bigarray.Array1.unsafe_get buf k in
          (* One observation per pair: the mean of the mirrored draws is
             itself i.i.d. across pairs, so the Welford CI stays honest. *)
          Bigarray.Array1.unsafe_set buf k
            (0.5 *. (f_of_u v +. f_of_u (1.0 -. v)))
        done;
        Numerics.Summary.Online.add_column acc col ~pos:0 ~len;
        remaining := !remaining - len
      done
    end;
    acc
  in
  let total =
    Numerics.Parallel.parallel_for_reduce ?pool ~chunks
      ~init:(Numerics.Summary.Online.create ())
      ~body ~merge:Numerics.Summary.Online.merge
  in
  let e = of_online total pairs in
  { e with n }

let within e x = x >= e.ci95_lo && x <= e.ci95_hi
