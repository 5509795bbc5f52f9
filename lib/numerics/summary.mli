(** Descriptive statistics over float samples. *)

(** [mean xs] — arithmetic mean of a non-empty array. *)
val mean : float array -> float

(** [variance xs] — unbiased sample variance (n-1 denominator); requires at
    least two samples. *)
val variance : float array -> float

(** [std xs] — sample standard deviation. *)
val std : float array -> float

(** [quantile xs p] — linear-interpolation quantile (type 7) of a non-empty
    array, [0 <= p <= 1].  Does not mutate its argument.  Sorts a private
    copy — O(n log n); for a one-off quantile prefer
    {!quantile_unsorted}. *)
val quantile : float array -> float -> float

(** [quantile_sorted xs p] — as {!quantile} but [xs] must already be
    sorted ascending (in the [Float.compare] order); no copy, no sort,
    O(1).  The caller owns the sortedness invariant. *)
val quantile_sorted : float array -> float -> float

(** [quantile_unsorted xs p] — as {!quantile} (bit-identical result,
    including NaN placement, up to the sign of interpolated zeros when the
    data mixes [-0.] and [0.] — see the ordering contract in {!Select})
    but expected O(n) via Floyd–Rivest selection on a private column copy
    instead of a full sort. *)
val quantile_unsorted : float array -> float -> float

(** [median xs]. *)
val median : float array -> float

(** [minimum xs] and [maximum xs]. *)
val minimum : float array -> float

val maximum : float array -> float

(** [histogram ~edges xs] — counts per bin; [edges] sorted ascending with
    [n+1] entries for [n] bins; values outside are dropped. *)
val histogram : edges:float array -> float array -> int array

(** Online mean/variance accumulator (Welford). *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  (** [add_column t col ~pos ~len] — observe elements [pos .. pos+len-1]
      of the column in order; bit-identical to calling [add] per element,
      but the fold runs with the Welford state in unboxed locals (the
      batched Monte-Carlo hot path). *)
  val add_column : t -> Columns.t -> pos:int -> len:int -> unit

  val count : t -> int
  val mean : t -> float

  (** Unbiased variance; requires at least two observations. *)
  val variance : t -> float

  val std : t -> float

  (** [merge a b] — a fresh accumulator equivalent to having observed [a]'s
      samples followed by [b]'s (Chan et al. pairwise mean/M2 combination).
      Neither argument is mutated; an empty accumulator is the identity.
      Used to reduce per-domain Welford accumulators deterministically. *)
  val merge : t -> t -> t
end
