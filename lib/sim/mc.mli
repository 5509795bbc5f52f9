(** Monte-Carlo estimation with error reporting. *)

type estimate = {
  mean : float;
  std_error : float;
  ci95_lo : float;
  ci95_hi : float;
  n : int;
}

(** [estimate ~n rng f] — sample [f rng] [n] times ([n >= 2]). *)
val estimate : n:int -> Numerics.Rng.t -> (Numerics.Rng.t -> float) -> estimate

(** [probability ~n rng event] — estimate P(event) from Bernoulli trials,
    with the normal-approximation CI. *)
val probability : n:int -> Numerics.Rng.t -> (Numerics.Rng.t -> bool) -> estimate

(** [estimate_par ?pool ?chunks ~n ~seed f] — parallel [estimate].  The seed
    fans out into [chunks] independent streams ([Rng.split_n]); chunk [i]
    draws its share of the [n] samples from stream [i]; per-chunk Welford
    accumulators merge in chunk order ([Summary.Online.merge]).

    Determinism contract: for a fixed [(seed, chunks)] the result is
    bit-identical whatever the pool size (1 domain, 4 domains, or the
    sequential fallback) — only changing [chunks] or [seed] changes the
    sample streams.  [chunks] defaults to [Parallel.default_chunks] (the
    [CONFCASE_CHUNKS] environment variable, else [8 × domains]); pass it
    explicitly — as the repro layer does — when cross-machine
    reproducibility matters.  [f] must be safe to call from several domains
    at once on distinct [Rng.t] values (pure apart from its generator
    argument). *)
val estimate_par :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  (Numerics.Rng.t -> float) ->
  estimate

(** Samples per scratch-buffer refill on the batched path.  Part of the
    stream definition, like [chunks]: a fill function may legitimately
    draw differently for one long segment than for two short ones, so the
    segmentation is pinned rather than tunable. *)
val batch_size : int

(** A batched sampler: [fill rng buf ~pos ~len] writes [len] samples into
    [buf.{pos} ..] of a scratch column's storage ([Columns.unsafe_data]),
    advancing [rng].  Must be a pure function of the generator state (and
    [len]) — no dependence on domain identity.  The [Rng.fill_*],
    [Dist.sample_into] and [Mixture.sample_into] kernels all have this
    shape. *)
type batch_fill =
  Numerics.Rng.t -> Numerics.Columns.ba -> pos:int -> len:int -> unit

(** [fill_of_scalar f] — lift a scalar sampler into a {!batch_fill} that
    draws [f rng] once per slot, in slot order.  The lifted fill consumes
    the generator exactly as a scalar loop would, so for a fixed
    [(seed, chunks)] a sketch built over [fill_of_scalar f] describes
    {e the same sample multiset} as [estimate_par] over [f]. *)
val fill_of_scalar : (Numerics.Rng.t -> float) -> batch_fill

(** [estimate_par_batched ?pool ?chunks ~n ~seed make_fill] — the
    allocation-free fast path of [estimate_par].  Same fan-out (one stream
    per chunk, Welford merge in chunk order) but each chunk draws samples
    [batch_size] at a time into a reusable domain-local scratch column via
    the fill returned by [make_fill ()], and folds the column with
    [Summary.Online.add_column].

    [make_fill] is called once per chunk, inside the executing domain, so
    any scratch state the fill closes over is domain-local.  Determinism
    contract: bit-identical at any domain count for fixed [(seed, chunks)];
    [chunks] defaults as in [estimate_par].  The batched stream is
    generally a different (faster) stream than the scalar [estimate_par]
    one — segmentation by [batch_size] is part of its definition. *)
val estimate_par_batched :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  (unit -> batch_fill) ->
  estimate

(** [probability_par ?pool ?chunks ~n ~seed event] — parallel [probability]
    under the same determinism contract as [estimate_par]. *)
val probability_par :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  (Numerics.Rng.t -> bool) ->
  estimate

(** [sketch_par ?pool ?compression ?chunks ~n ~seed make_fill] — stream
    [n] samples (same fan-out, segmentation and scratch as
    [estimate_par_batched]) into per-chunk {!Numerics.Sketch} digests and
    fold them in chunk order with the allocation-free [Sketch.merge_into].
    Memory is O(chunks × compression) — independent of [n] — so this is
    how to get quantiles of a Monte-Carlo output without materialising
    the sample array.

    Determinism contract: the merge is deterministic and the fold order is
    fixed, so the returned sketch — and every quantile read from it — is a
    pure function of [(seed, chunks, n, compression)]: bit-identical at
    any domain count.  Note that the sketch itself is an
    {e approximation}; accuracy bounds are documented in
    {!Numerics.Sketch}. *)
val sketch_par :
  ?pool:Numerics.Parallel.pool ->
  ?compression:float ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  (unit -> batch_fill) ->
  Numerics.Sketch.t

(** [quantiles_par ?pool ?compression ?chunks ~n ~seed ~ps make_fill] —
    [Array.map (Sketch.quantile (sketch_par ...)) ps]. *)
val quantiles_par :
  ?pool:Numerics.Parallel.pool ->
  ?compression:float ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  ps:float array ->
  (unit -> batch_fill) ->
  float array

(** {1 Variance reduction}

    Importance sampling, quasi-Monte-Carlo and stratified/antithetic
    wrappers.  All entry points obey the same determinism contract as
    [estimate_par]: for a fixed [(seed, chunks)] (or [(seed, replicates)]
    for QMC) the result is bit-identical at any domain count. *)

(** Importance-sampling estimate with diagnostics.

    [plain] is the unbiased estimator (1/n) Σ wᵢ f(xᵢ) — valid when both
    target and proposal densities are normalised.  [self_norm] is the
    self-normalised ratio Σ wᵢ f(xᵢ) / Σ wᵢ with a delta-method standard
    error — biased O(1/n) but tolerant of unnormalised targets (e.g. a
    posterior known up to its evidence).  [ess] is the Kish effective
    sample size (Σw)²/Σw²; [max_weight_share] is the largest single
    weight's share of Σw.  An [ess] far below [n] or a [max_weight_share]
    near 1 signals weight degeneracy: the proposal misses where the
    target×integrand mass lives and the reported CIs may be optimistic. *)
type is_estimate = {
  plain : estimate;
  self_norm : estimate;
  ess : float;
  max_weight_share : float;
  sum_weights : float;
}

(** [estimate_is ?pool ?chunks ~n ~seed ~target ~proposal f] — estimate
    E_target[f(X)] by drawing from [proposal] (via the batched
    [Dist.sample_into] path) and reweighting each draw by
    [exp (target.log_pdf x -. proposal.log_pdf x)].

    The proposal must dominate the target where [f] is non-zero
    (proposal density positive wherever target density × f is); a weight
    that comes out non-finite raises [Invalid_argument].  Per-chunk
    weight sums merge by componentwise addition in chunk order, so the
    determinism contract of [estimate_par] carries over verbatim. *)
val estimate_is :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  target:Dist.t ->
  proposal:Dist.t ->
  (float -> float) ->
  is_estimate

(** [estimate_is_weighted ?pool ?chunks ~n ~seed ~proposal ~log_weight f]
    — generalised form of [estimate_is] taking the log-weight function
    directly (useful when the target density is only known through an
    unnormalised log-density, or when the weight has a simplified closed
    form). *)
val estimate_is_weighted :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  proposal:Dist.t ->
  log_weight:(float -> float) ->
  (float -> float) ->
  is_estimate

(** [probability_is ?pool ?chunks ~n ~seed ~target ~proposal event] —
    [estimate_is] of the indicator of [event]: P_target(event).  With a
    proposal concentrated on the event this resolves tail probabilities
    orders of magnitude below what [probability_par] can see at the same
    [n]. *)
val probability_is :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  target:Dist.t ->
  proposal:Dist.t ->
  (float -> bool) ->
  is_estimate

(** [estimate_qmc ?pool ?replicates ~dim ~n ~seed f] — quasi-Monte-Carlo
    mean of [f] over the unit cube [0,1){^dim}: [replicates] (default 16,
    minimum 2) independently scrambled Sobol nets of [n] points each,
    evaluated in parallel (one replicate per chunk, merged in replicate
    order).  [f] receives each point as a [floatarray] of length [dim]
    valid only for the duration of the call, and must be pure.

    The returned mean averages the replicate means ([n] field =
    [replicates × n] total evaluations); the CI comes from the spread of
    the [replicates] i.i.d. replicate means, so it is honest even though
    points within a replicate are correlated.  For smooth integrands the
    error decays near O(n⁻¹) instead of Monte-Carlo's O(n⁻¹ᐟ²).
    Scrambles are seeded from [Rng.split_n] stream [r], so the result is
    a pure function of [(seed, replicates, n, dim)]. *)
val estimate_qmc :
  ?pool:Numerics.Parallel.pool ->
  ?replicates:int ->
  dim:int ->
  n:int ->
  seed:int ->
  (floatarray -> float) ->
  estimate

(** [estimate_par_stratified ?pool ?chunks ~n ~seed f_of_u] — estimate
    E[f(U)] for U uniform on [0,1) with each chunk's share stratified:
    slot [j] of a size-[m] chunk draws its uniform from the sub-interval
    [[j/m, (j+1)/m)].  Strictly never increases the sampling variance of
    the chunk means, and collapses it for monotone or smooth [f_of_u]
    (use [fun u -> f (Dist.quantile d u)] to stratify over a
    distribution).  The reported CI treats observations as i.i.d. and is
    therefore conservative under stratification.  Same determinism
    contract and [batch_size] segmentation as [estimate_par_batched]. *)
val estimate_par_stratified :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  (float -> float) ->
  estimate

(** [estimate_par_antithetic ?pool ?chunks ~n ~seed f_of_u] — antithetic
    variant of [estimate_par_stratified]'s uniform view: [n/2] pairs
    (v, 1−v), each contributing the single observation
    (f(v) + f(1−v))/2.  The pair means are i.i.d., so the CI is exact in
    the usual asymptotic sense; variance improves whenever [f_of_u] is
    monotone (perfectly anticorrelated halves).  [n] must be even and at
    least 4. *)
val estimate_par_antithetic :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  n:int ->
  seed:int ->
  (float -> float) ->
  estimate

(** [within estimate x] — does [x] fall inside the 95% CI? *)
val within : estimate -> float -> bool
