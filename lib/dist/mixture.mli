(** Finite mixtures of point masses and continuous components.

    This is the belief type used by the confidence calculus: an expert's
    belief about a pfd may combine a continuous density, an atom at 0
    ("possible perfection", paper Section 3.4 footnote 3) and atoms placed by
    the worst-case construction (all doubt mass at 1). *)

type component = Atom of float | Cont of Base.t

type t

(** [make components] — weights must be positive and sum to 1 (within 1e-9;
    they are renormalised exactly). *)
val make : (float * component) list -> t

(** [of_dist d] — trivial mixture. *)
val of_dist : Base.t -> t

(** [atom x] — unit mass at [x]. *)
val atom : float -> t

(** [components t] — the (weight, component) list, weights summing to 1. *)
val components : t -> (float * component) list

(** [with_perfection ~p0 t] — mix an atom at 0 with weight [p0] into [t]
    (scaling the rest by [1 - p0]). *)
val with_perfection : p0:float -> t -> t

(** [prob_le t x] = P(X <= x) — includes any atom exactly at [x]. *)
val prob_le : t -> float -> float

(** [prob_lt t x] = P(X < x) — excludes an atom exactly at [x]. *)
val prob_lt : t -> float -> float

(** [mean t].  When [t] is a belief over pfd this is exactly
    P(system fails on a randomly selected demand) — equation (4) of the
    paper. *)
val mean : t -> float

(** [variance t]. *)
val variance : t -> float

(** [expect t f] = E[f(X)]; [f] must be finite on the support. *)
val expect : t -> (float -> float) -> float

(** [quantile t p] — generalized inverse CDF, [0 < p < 1]. *)
val quantile : t -> float -> float

(** [credible_interval t ~level] — the central credible interval
    [(quantile ((1-level)/2), quantile ((1+level)/2))], [0 < level < 1]. *)
val credible_interval : t -> level:float -> float * float

(** [sample t rng] — O(log k) in the component count: the component is
    found by binary search of a cumulative-weight table precomputed at
    construction (whose last entry is pinned to 1, so floating-point weight
    drift cannot leak mass into the final component). *)
val sample : t -> Numerics.Rng.t -> float

(** [sample_into t rng buf ~pos ~len] — write [len] independent samples
    into [buf.{pos} ..] of a column's storage ([Columns.unsafe_data])
    using the batched kernels: atoms-only and single-component mixtures
    are fully vectorised, mixed mixtures batch the component selection
    (a binary search of the cumulative-weight column) and draw continuous
    slots scalar-wise.  The draw scheme differs from repeated {!sample}
    (it is a faster stream, not the same one) but is a pure function of
    (rng state, [t], [len]) — the property the parallel Monte-Carlo
    determinism contract relies on. *)
val sample_into :
  t -> Numerics.Rng.t -> Numerics.Columns.ba -> pos:int -> len:int -> unit

(** [cum_col t] — the cumulative component weights as a column (last
    entry pinned to 1).  A read-only alias of the mixture's own storage:
    do not mutate. *)
val cum_col : t -> Numerics.Columns.t

(** [support t] — smallest interval containing all mass. *)
val support : t -> float * float

(** [atom_weight t x] — total weight of atoms exactly at [x]. *)
val atom_weight : t -> float -> float

(** [map_weights t f] — multiply the weight of each component by a positive
    factor [f component] and renormalise; returns the rescaled mixture and
    the normalising constant.  Atoms are reweighted by [f] at their location;
    continuous parts by the factor returned for the component.  Used by the
    Bayesian-update substrate. *)
val scale_weights : t -> (component -> float) -> t * float

(** [name t] — human-readable description. *)
val name : t -> string
