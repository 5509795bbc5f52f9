(** Streaming evidence accumulators: online confidence updating at
    traffic scale (the ROADMAP's online rebuild of the Section 4
    operating-experience argument).

    An accumulator absorbs evidence events — failure-free demands,
    observed failures, operating hours — one at a time or in column
    batches, and answers posterior queries on demand.  The key fact
    making this exact is that the binomial and Poisson-process
    likelihoods depend on the evidence only through sufficient
    statistics (total demands, total failures, total hours), so the
    accumulator stores exact totals: integers for counts and an
    {!Numerics.Exact_sum} for hours.  The posterior after any stream of
    events is therefore {e Int64-bitwise identical} to the batch
    [Tail_cutoff.after_demands]/[after_hours] (or
    [Bayes.update_demands]/[update_time] when failures were observed) on
    the pooled evidence — however the stream was chunked, ordered,
    batched, split across domains, or merged.

    Priors take a conjugate fast path when declared as such — Beta for
    demand-mode pfd (posterior Beta(a + f, b + s)), Gamma for
    continuous-mode rates (Gamma(shape + f, rate + t)) — and fall back
    to prepared grid reweighting over [Dist.Mixture] beliefs otherwise
    ([Bayes.Prepared], tables built lazily at the first query).

    Merge contract: {!merge_into} adds exact totals, so it is exactly
    associative and commutative; chunk-order merging of per-chunk
    sub-accumulators ({!ingest_demands_par}) reproduces sequential
    ingestion bitwise at any domain count {e and} any chunk count.
    Accumulators merge only when their priors agree: conjugate
    parameters must be bitwise equal, mixture priors physically equal
    ([==]).

    Not thread-safe: confine an accumulator to one domain; combine with
    {!merge_into}. *)

(** Demand-mode accumulators count discrete demands (belief over a pfd);
    continuous-mode accumulators total operating hours (belief over a
    per-hour failure rate).  Observations of the wrong kind are
    rejected. *)
type mode = Demand | Continuous

type t

(** {1 Constructors} *)

(** [demand_beta ~a ~b] — demand-mode accumulator with a conjugate
    Beta(a, b) prior over the pfd ([a, b > 0]). *)
val demand_beta : a:float -> b:float -> t

(** [demand_of_belief prior] — demand-mode accumulator over an arbitrary
    mixture prior (grid reweighting). *)
val demand_of_belief : Dist.Mixture.t -> t

(** [rate_gamma ~shape ~rate] — continuous-mode accumulator with a
    conjugate Gamma(shape, rate) prior over the failure rate. *)
val rate_gamma : shape:float -> rate:float -> t

(** [rate_of_belief prior] — continuous-mode accumulator over an
    arbitrary mixture prior. *)
val rate_of_belief : Dist.Mixture.t -> t

val copy : t -> t

(** {1 State} *)

val mode : t -> mode

(** [events t] — events absorbed (observe calls count one each; column
    ingestion counts one per row). *)
val events : t -> int

val demands : t -> int
val failures : t -> int

(** [hours t] — total operating hours, correctly rounded from the exact
    internal sum. *)
val hours : t -> float

(** {1 Ingestion} *)

(** [observe_demands t ~demands ~failures] — one demand-mode event:
    [demands >= 0] demands of which [0 <= failures <= demands] failed. *)
val observe_demands : t -> demands:int -> failures:int -> unit

(** [observe_hours t ~hours ~failures] — one continuous-mode event:
    [hours >= 0] (finite) operating hours with [failures >= 0] observed
    failures. *)
val observe_hours : t -> hours:float -> failures:int -> unit

(** [ingest_demands_col t ~demands ~failures] — batch ingestion from
    paired columns (row i: [demands.(i)] demands, [failures.(i)]
    failures; both must hold exact non-negative integers, equal
    lengths).  Equivalent to [observe_demands] per row. *)
val ingest_demands_col :
  t -> demands:Numerics.Columns.t -> failures:Numerics.Columns.t -> unit

(** [ingest_hours_col t ~hours ~failures] — batch ingestion of
    continuous-mode events from paired columns. *)
val ingest_hours_col :
  t -> hours:Numerics.Columns.t -> failures:Numerics.Columns.t -> unit

(** [ingest_demands_par ?pool ?chunks t ~demands ~failures] — parallel
    batch ingestion: the rows are split into [chunks] slices (default
    [Numerics.Parallel.default_chunks]), each absorbed into a fresh
    sub-accumulator on the pool, then merged into [t] in chunk order.
    Because totals are exact, the final state is bit-identical to
    sequential {!ingest_demands_col} at any domain and chunk count. *)
val ingest_demands_par :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  t ->
  demands:Numerics.Columns.t ->
  failures:Numerics.Columns.t ->
  unit

val ingest_hours_par :
  ?pool:Numerics.Parallel.pool ->
  ?chunks:int ->
  t ->
  hours:Numerics.Columns.t ->
  failures:Numerics.Columns.t ->
  unit

(** {1 Merging} *)

(** [merge_into ~into src] — pool [src]'s evidence into [into] ([src] is
    unchanged).  [Invalid_argument] unless modes and priors agree (see
    the merge contract above). *)
val merge_into : into:t -> t -> unit

(** [merge a b] — a fresh accumulator holding the pooled evidence. *)
val merge : t -> t -> t

(** {1 Posterior queries} *)

(** [posterior t] — the posterior belief given everything absorbed so
    far (cached until the next observation).  With no evidence this is
    the prior, exactly as [after_demands ~n:0] returns the prior. *)
val posterior : t -> Dist.Mixture.t

(** [mean t] — posterior mean (the predicted failure measure). *)
val mean : t -> float

(** [confidence t ~bound] — posterior P(measure <= bound). *)
val confidence : t -> bound:float -> float

(** [posterior_after_demands t ~extra] — the posterior [t] would hold
    after [extra] additional failure-free demands (demand mode only; the
    accumulator is not modified) — the live what-if behind trajectory
    queries. *)
val posterior_after_demands : t -> extra:int -> Dist.Mixture.t

(** [posterior_after_hours t ~extra] — continuous-mode counterpart. *)
val posterior_after_hours : t -> extra:float -> Dist.Mixture.t

(** [trajectory_into t ~bound ~extras ~mean ~confidence] — for each
    [i], the posterior mean and the confidence P(measure <= bound) that
    [t] would have after [extras.(i)] more failure-free demands (demand
    mode; each extra must be an exact non-negative integer) or operating
    hours (continuous mode), written to [mean.(i)] and [confidence.(i)].
    The accumulator is not modified.

    The results are bitwise those of [Dist.Mixture.mean] and
    [Dist.Mixture.prob_le p bound] on [p = posterior_after_demands t
    ~extra] (or [posterior_after_hours]), and the errors are theirs, with
    their messages, raised at the first failing extra.  Conjugate priors
    take a kernel that builds no distribution: per point it forms the
    posterior parameters (continuous totals still through the exact
    sum) and calls one [Special.beta_inc] or [Special.gamma_p], with the
    same arguments in the same order as the distribution would.  Mixture
    priors go through [posterior_after_*].

    [Invalid_argument] if [mean] or [confidence] is shorter than
    [extras], or a demand-mode extra is not an integer. *)
val trajectory_into :
  t ->
  bound:float ->
  extras:float array ->
  mean:float array ->
  confidence:float array ->
  unit

(** {1 Snapshots}

    [to_columns t] — the accumulator state as named columns
    ("stream_meta" carrying mode/prior tags, conjugate parameters and
    exact counts; "stream_hours" carrying the exact-sum limbs), suitable
    for [Numerics.Columns.save].  Counts round-trip exactly (they are
    stored as integers below 2^53; ingestion rejects overflow past
    that).  Mixture priors are {e not} serialised — restore supplies the
    prior and the tags are checked. *)
val to_columns : t -> (string * Numerics.Columns.t) list

(** [of_columns ?prior cols] — rebuild from {!to_columns} output (or a
    [Columns.load ?mmap] of it).  Conjugate accumulators rebuild
    entirely from the snapshot; mixture-prior accumulators require
    [?prior] ([Failure] if missing).  The restored state is bit-identical
    to the saved one. *)
val of_columns : ?prior:Dist.Mixture.t -> (string * Numerics.Columns.t) list -> t
