(** First-class continuous distributions.

    A value of type {!t} packages the usual functionals of an absolutely
    continuous distribution.  Closed-form families ({!Normal}, {!Lognormal},
    ...) construct it directly; {!val:of_grid_pdf} builds one numerically from
    a tabulated density (used for reweighted posteriors and opinion pools). *)

(** Identifies the closed-form sampling kernel of a family so that batched
    sampling can dispatch to the allocation-free [Rng.fill_*] loops;
    [Generic] falls back to the scalar [sample] closure. *)
type kernel =
  | Normal_k of { mu : float; sigma : float }
  | Lognormal_k of { mu : float; sigma : float }
  | Uniform_k of { lo : float; hi : float }
  | Exponential_k of { rate : float }
  | Generic

type t = {
  name : string;
  support : float * float;  (** Interval carrying all the mass. *)
  pdf : float -> float;
  log_pdf : float -> float;
  cdf : float -> float;
  quantile : float -> float;  (** Inverse CDF on (0, 1). *)
  mean : float;
  variance : float;
  mode : float option;  (** [None] when not unique / not defined. *)
  sample : Numerics.Rng.t -> float;
  kernel : kernel;  (** Batch-sampling dispatch tag; [Generic] is always safe. *)
}

(** [sample_into t rng buf ~pos ~len] — write [len] independent samples
    into [buf.{pos} ..] of a column's storage ([Columns.unsafe_data]).
    Bit-identical to [len] successive [t.sample rng] calls, but
    closed-form families run the allocation-free batched RNG kernels
    instead of a closure call per draw. *)
val sample_into :
  t -> Numerics.Rng.t -> Numerics.Columns.ba -> pos:int -> len:int -> unit

val std : t -> float

(** [survival t x] = P(X > x). *)
val survival : t -> float -> float

(** [interval_prob t a b] = P(a < X <= b). *)
val interval_prob : t -> float -> float -> float

(** [check_prob p] raises [Invalid_argument] unless [0 < p < 1]. *)
val check_prob : float -> unit

(** [of_grid_pdf ~name ~grid ~pdf ()] builds a distribution from density
    values tabulated on a strictly increasing [grid] (at least 8 points).
    The density is renormalised to integrate to 1 over the grid (trapezoid
    rule), so [pdf] may be unnormalised.  Returns the distribution together
    with the normalisation constant that was divided out (the "evidence" when
    the input is prior x likelihood). *)
val of_grid_pdf :
  name:string -> grid:float array -> pdf:(float -> float) -> unit -> t * float

(** [of_grid_values ~name ~grid ~values ()] — as {!of_grid_pdf} but taking
    the density values already tabulated ([values.(i)] at [grid.(i)]):
    the seam that lets prepared reweighting reuse a cached density table
    instead of re-evaluating the pdf per query.  [of_grid_pdf ~pdf] is
    exactly [of_grid_values ~values:(Array.map pdf grid)], so the two
    paths are bit-identical on the same inputs (error messages keep the
    "Dist.of_grid_pdf" prefix for compatibility). *)
val of_grid_values :
  name:string -> grid:float array -> values:float array -> unit -> t * float

(** [expect t f] = E[f(X)], computed by substituting u = F(x) and integrating
    over (0,1) — robust for heavy-tailed supports. *)
val expect : t -> (float -> float) -> float
