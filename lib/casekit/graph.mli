(** Flat, cache-friendly case graphs for million-node propagation.

    {!Node.t} is the right representation for authoring and rendering a
    case, but it is a boxed tree: propagation walks pointers, re-deriving
    everything on every query, and evidence shared between legs has to be
    duplicated.  [Graph.t] is the evaluation representation: nodes are
    dense [int] indices, child and parent adjacency are CSR arrays,
    per-node kind tags live in a byte string, and confidences /
    assumption-validity products / computed values live in unboxed
    {!Numerics.Columns} float64 columns.  It is a true DAG — one evidence
    node may be [supported_by] several legs — with {!of_node}/{!to_node}
    bridges that are semantics-preserving on trees.

    {2 Index invariant}

    Node indices are assigned in construction order and children always
    precede parents, so ascending index order {e is} a topological order.
    Every kernel below — full propagation, the level schedule, the
    incremental dirty frontier — leans on that single invariant.

    {2 Bit-identity contract}

    On a tree, each goal combines its children with the same float
    operations, in the same order, as a left [List] fold over the
    children's values followed by the product of its assumption
    validities.  The test suite keeps those folds as a reference
    evaluator and checks [propagate dep (of_node t)] against it bit for
    bit under every dependence model.  {!propagate_par} computes every
    node from the same inputs as the sequential kernel (levels only order
    the schedule, writes are disjoint), so it is bit-identical at any
    domain count.

    {2 Shared-evidence discount}

    On a DAG, evidence reachable from more than one leg of an [Any] goal
    breaks the independence the multi-leg argument relies on (the C009
    smell).  At build time each such goal gets an overlap fraction —
    distinct evidence items cited by two or more legs over distinct
    evidence items under the goal — and under [Correlated rho] the goal
    is combined at [max rho overlap]: the static warning becomes a
    quantitative penalty.  On trees the overlap is 0 and the discount
    vanishes, preserving the bit-identity contract. *)

type dependence =
  | Independent
  | Frechet_lower  (** Worst-case joint behaviour. *)
  | Frechet_upper  (** Best-case joint behaviour. *)
  | Correlated of float
      (** [Correlated rho], rho in [0,1]: blend between the independent
          (rho = 0) and comonotone (rho = 1) values; on goals with
          shared-evidence overlap the effective rho is floored at the
          overlap fraction. *)

type t

type kind = Evidence | All_goal | Any_goal

(** {1 Construction} *)

module Builder : sig
  (** Streaming construction: emit children before parents, get their
      indices back, wire them into goals.  A million-node case never
      materialises as boxed {!Node.t} values.  A builder is consumed by
      {!build}; using it afterwards is unspecified. *)

  type b

  val create : ?capacity:int -> unit -> b

  (** [evidence b ?id ?statement ~confidence ()] — new leaf, confidence
      in (0,1].  [id] defaults to [""] (anonymous: not interned, not
      addressable by name — cheap for generated graphs). *)
  val evidence :
    b -> ?id:string -> ?statement:string -> confidence:float -> unit -> int

  (** [goal b ?id ?statement ?assumptions ~combinator children] — new
      goal over existing node indices (children must already have been
      emitted; this is what makes index order topological).  Children may
      be shared with other goals — that is how DAGs are built.
      @raise Invalid_argument on empty children, out-of-range indices,
      p_valid outside (0,1], or duplicate interned ids. *)
  val goal :
    b ->
    ?id:string ->
    ?statement:string ->
    ?assumptions:Node.assumption list ->
    combinator:Node.combinator ->
    int array ->
    int

  (** [build b ~root] — freeze into a graph: derive the parent CSR, the
      level schedule, and the shared-evidence overlap fractions. *)
  val build : b -> root:int -> t
end

(** [of_node t] — bridge a boxed case tree into a graph (safe on
    10^5-deep chains).  Node and assumption ids are interned; duplicate
    ids raise [Invalid_argument] as {!Node.validate} would. *)
val of_node : Node.t -> t

(** [to_node t] — bridge back to a boxed tree.  [to_node (of_node t) = t]
    structurally.  Anonymous nodes (from {!Builder} or {!Generate}) are
    named [#i] after their index — primed if an authored id already holds
    that name — so the tree prints ([Case_format.print]) to text that
    parses back.
    @raise Invalid_argument if the graph is not a tree (some node has
    more than one parent): a DAG has no faithful tree rendering. *)
val to_node : t -> Node.t

(** {1 Propagation} *)

(** [propagate dep t] — one pass in index (= topological) order; returns
    the root value.  Also the baseline for {!refresh}: it clears every
    dirty flag and records [dep]. *)
val propagate : dependence -> t -> float

(** [propagate_par ~pool ?chunks dep t] — level-wise parallel propagation
    over the domain pool: nodes at the same level have no edges between
    them, so each level is split into [chunks] near-equal slices
    ({!Numerics.Parallel.chunk_sizes}) evaluated concurrently.  Every
    node is computed from exactly the same inputs as in {!propagate},
    so the result is bit-identical to the sequential kernel at any
    domain count.  Small levels run inline. *)
val propagate_par :
  pool:Numerics.Parallel.pool -> ?chunks:int -> dependence -> t -> float

(** {1 Incremental edits}

    The invalidation invariant: a node's value is stale iff it is marked
    dirty, and every ancestor of a changed node is marked before
    {!refresh} returns.  Edits mark; [refresh] pops dirty nodes in
    ascending index order (a min-heap — children before parents, again
    the index invariant), recomputes each, and only propagates to parents
    when the recomputed bits actually changed — an edit whose effect dies
    out (e.g. under a [min]) stops early. *)

(** [set_evidence t i c] — stage a new confidence (in (0,1]) for evidence
    node [i] and mark its ancestor cone dirty.
    @raise Invalid_argument if [i] is not an evidence node or [c] is out
    of range. *)
val set_evidence : t -> int -> float -> unit

(** [set_assumption t ~id ~p_valid] — stage a new validity for the
    assumption with interned id [id].
    @raise Not_found if no assumption has that id. *)
val set_assumption : t -> id:string -> p_valid:float -> unit

(** [refresh dep t] — re-propagate only the dirty frontier and return the
    root value.  Falls back to a full {!propagate} when [dep] differs
    from the model the current values were computed under (or none was).
    After [refresh], [value t i] agrees bitwise with a full [propagate]
    for every node [i]. *)
val refresh : dependence -> t -> float

(** [invalidate t] — forget which dependence model the value column was
    computed under, so the next {!refresh} runs a full {!propagate}.
    The cold-path lever: benchmarks and the serve [flush] request use it
    to force an uncached evaluation without rebuilding the graph. *)
val invalidate : t -> unit

(** {1 Sensitivities}

    Both rankings answer the ACARP question "which input is worth
    strengthening?" with central differences of the root value (step
    [1e-4], clamped to [[1e-6, 1]]).  Each probe is a {!set_evidence} or
    {!set_assumption} edit followed by {!refresh}, so a ranking re-runs
    only the edited inputs' ancestor cones.  Both start with a full
    {!propagate} under [dep] and restore every input they perturb. *)

(** [leaf_sensitivities dep t] — [(id, d root / d confidence)] for each
    evidence node, in ascending index order. *)
val leaf_sensitivities : dependence -> t -> (string * float) list

(** [assumption_sensitivities dep t] — [(id, d root / d p_valid)] for
    each assumption, in preorder from the root: each goal's assumptions
    ahead of its children's. *)
val assumption_sensitivities : dependence -> t -> (string * float) list

(** {1 Content-addressed structural hashing}

    [structural_hash t i] is a leaf-up 64-bit hash of the sub-case rooted
    at [i], stored as one more unboxed column (int64 bits): an evidence
    node hashes its confidence bits; a goal hashes its combinator tag,
    assumption-validity product, shared-evidence overlap fraction, and
    its children's hashes in emission order.  Ids and statements are
    excluded, so two sub-cases that would propagate identically under
    every dependence model hash equal — the hash is a sound
    content-address for memoising evaluation results ([confcase serve]
    keys its cache on [(structural_hash, dependence_hash)]).

    Maintenance mirrors the value column: the first query pays one full
    leaf-up pass; {!set_evidence}/{!set_assumption} mark a second dirty
    frontier, and later queries re-hash only the edited cone with the
    same bitwise early cutoff as {!refresh} (an edit reverted to the
    previous value stops at the leaf, restoring the previous hash — and
    with it any memoised results for that state). *)

val structural_hash : t -> int -> int64
(** @raise Invalid_argument if [i] is out of range. *)

(** [root_hash t] — [structural_hash t (root t)]. *)
val root_hash : t -> int64

(** [dependence_hash dep] — 64-bit tag of the dependence model (bitwise
    on [rho]), mixed into memo keys so the same structure evaluated
    under two models never collides. *)
val dependence_hash : dependence -> int64

(** {1 Static-analysis kernels}

    The semantic audit passes ([Analysis.Audit]) run directly on the CSR
    representation; these are their graph-side kernels. *)

(** [propagate_bounds ?leaf_bounds ?with_assumptions dep t] — interval
    abstract interpretation in one topological sweep: per-node attainable
    confidence bounds [(lo, hi)] as two fresh columns.  [leaf_bounds i]
    supplies the attainable range of evidence node [i] (default
    [(0.0, 1.0)], the belief-free worst/best case; must satisfy
    [0 <= lo <= hi <= 1]).  Every combinator is monotone nondecreasing in
    each child value, so running the concrete arithmetic over the lo and
    hi columns separately yields sound bounds — and with point leaf
    intervals [(base, base)] both columns reproduce {!propagate}'s value
    bit for bit at every node.  [with_assumptions:false] skips the
    assumption-validity products (the C015 probe: what the argument
    could reach if every assumption held surely).  Does not disturb the
    graph's value column or dirty state.
    @raise Invalid_argument on malformed [dep] or leaf bounds. *)
val propagate_bounds :
  ?leaf_bounds:(int -> float * float) ->
  ?with_assumptions:bool ->
  dependence ->
  t ->
  Numerics.Columns.t * Numerics.Columns.t

(** [compute_excluding dep t i ~skip ~values] — goal [i]'s value (with
    its assumption product applied) recomputed over the column [values]
    with its [skip]-th child (0-based position) removed, replaying the
    same fold shapes as propagation.  The vacuous-leg probe: when the
    result is bitwise equal to the stored value, removing that leg
    cannot change the node — and by monotonicity cannot change the root.
    Shared-evidence overlap fractions are structural and held fixed.
    @raise Invalid_argument if [i] is not a goal or [skip] is out of
    range. *)
val compute_excluding :
  dependence -> t -> int -> skip:int -> values:Numerics.Columns.t -> float

(** [spof_evidence t] — indices (ascending) of every evidence node whose
    lone refutation defeats the root under the boolean abstraction:
    kill(evidence e) = [{e}], kill(All) = union of children's kill sets,
    kill(Any) = intersection.  One bottom-up pass over sorted index
    arrays; on a tree the legs of an [Any] goal are disjoint so only
    all-conjunctive paths yield single points of failure — DAG sharing
    is what defeats a multi-leg argument on one item. *)
val spof_evidence : t -> int array

(** {1 Inspection} *)

val size : t -> int
val edge_count : t -> int
val root : t -> int

(** [levels t] — height of the level schedule (1 for a single leaf). *)
val levels : t -> int

val kind_of : t -> int -> kind

(** [id_of t i] — the interned id, or [""] for anonymous nodes. *)
val id_of : t -> int -> string

(** [find t id] — index of the node with interned id [id]. *)
val find : t -> string -> int option

(** [value t i] — the value computed by the last propagate/refresh. *)
val value : t -> int -> float

(** [base_confidence t i] — current confidence of evidence node [i]. *)
val base_confidence : t -> int -> float

(** [children t i] / [child_count t i] / [parents t i] /
    [parent_count t i] — adjacency probes. *)
val children : t -> int -> int array

val child_count : t -> int -> int
val parents : t -> int -> int array
val parent_count : t -> int -> int

(** [values t] — the live value column written by {!propagate} /
    {!refresh} (the same storage [value] reads).  Read-only by
    convention: it exists so analysis passes can hand the concrete
    values to {!compute_excluding} without copying a million-entry
    column. *)
val values : t -> Numerics.Columns.t

(** [evidence_indices t] — all evidence nodes, ascending. *)
val evidence_indices : t -> int array

(** [is_tree t] — no node has more than one parent. *)
val is_tree : t -> bool

(** [overlap_fraction t i] — the shared-evidence overlap of goal [i]
    (0 everywhere on trees and on non-[Any] goals). *)
val overlap_fraction : t -> int -> float

(** [max_overlap t] — the largest overlap fraction in the graph. *)
val max_overlap : t -> float
