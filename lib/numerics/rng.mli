(** Deterministic pseudo-random generation and distribution samplers.

    The generator is xoshiro256++ seeded through splitmix64; every consumer in
    this project takes an explicit [t] so experiments are reproducible from a
    single integer seed. *)

type t

(** [create seed] builds a generator from a 64-bit seed (any int). *)
val create : int -> t

(** [split t] derives an independent generator (for parallel streams). *)
val split : t -> t

(** [split_n t n] — derive [n] independent generators by splitting [t]
    repeatedly; stream [i] is deterministically the i-th split, so a fixed
    seed always fans out into the same family of streams (the basis of the
    parallel Monte-Carlo determinism contract). *)
val split_n : t -> int -> t array

(** [copy t] duplicates the generator state. *)
val copy : t -> t

(** [bits64 t] — next raw 64-bit value. *)
val bits64 : t -> int64

(** [float t] — uniform in [0, 1) with 53-bit resolution. *)
val float : t -> float

(** [float_pos t] — uniform in (0, 1): never returns 0. *)
val float_pos : t -> float

(** [int t n] — uniform in [0, n), [n > 0]. *)
val int : t -> int -> int

(** [bool t] — fair coin. *)
val bool : t -> bool

(** [bernoulli t p] — [true] with probability [p]. *)
val bernoulli : t -> float -> bool

(** [uniform t a b] — uniform on [a, b). *)
val uniform : t -> float -> float -> float

(** [normal t ~mu ~sigma] — Gaussian (polar Marsaglia). *)
val normal : t -> mu:float -> sigma:float -> float

(** [lognormal t ~mu ~sigma] — exp of a Gaussian. *)
val lognormal : t -> mu:float -> sigma:float -> float

(** [exponential t ~rate] — exponential with the given rate. *)
val exponential : t -> rate:float -> float

(** [gamma t ~shape ~rate] — Marsaglia-Tsang; valid for any [shape > 0]. *)
val gamma : t -> shape:float -> rate:float -> float

(** [beta t ~a ~b] — via two gamma draws. *)
val beta : t -> a:float -> b:float -> float

(** [poisson t ~mean] — exact: Knuth multiplication for small means, additive
    splitting for large ones. *)
val poisson : t -> mean:float -> int

(** [binomial t ~n ~p] — exact inversion (suitable for the moderate [n*p]
    regimes used here). *)
val binomial : t -> n:int -> p:float -> int

(** [geometric t ~p] — number of failures before the first success. *)
val geometric : t -> p:float -> int

(** {1 Batched generation}

    Batch kernels write [len] draws into [buf.{pos} .. buf.{pos+len-1}] of
    a float64 column's backing storage ({!Columns.ba}, obtained from
    [Columns.unsafe_data]), carrying the xoshiro256++ state in unboxed
    locals for the whole batch — the inner loops are allocation-free,
    unlike the scalar API whose every draw re-boxes the four [int64]
    state words.

    Bit-compatibility contract: [fill_xs t buf ~pos ~len] writes exactly
    the values [len] successive scalar [xs t] calls would return and
    leaves [t] in exactly the state those calls would leave it in, so
    batched and scalar code paths are interchangeable without changing any
    reproduced number. *)

(** [fill_floats t buf ~pos ~len] — [len] draws of [float t]. *)
val fill_floats : t -> Columns.ba -> pos:int -> len:int -> unit

(** [fill_floats_pos t buf ~pos ~len] — [len] draws of [float_pos t]. *)
val fill_floats_pos : t -> Columns.ba -> pos:int -> len:int -> unit

(** [fill_uniforms t buf ~pos ~len ~a ~b] — [len] draws of [uniform t a b]. *)
val fill_uniforms :
  t -> Columns.ba -> pos:int -> len:int -> a:float -> b:float -> unit

(** [fill_exponentials t buf ~pos ~len ~rate] — [len] draws of
    [exponential t ~rate]. *)
val fill_exponentials :
  t -> Columns.ba -> pos:int -> len:int -> rate:float -> unit

(** [fill_normals t buf ~pos ~len ~mu ~sigma] — [len] draws of
    [normal t ~mu ~sigma] (polar Marsaglia, same rejection sequence). *)
val fill_normals :
  t -> Columns.ba -> pos:int -> len:int -> mu:float -> sigma:float -> unit

(** [fill_lognormals t buf ~pos ~len ~mu ~sigma] — [len] draws of
    [lognormal t ~mu ~sigma]. *)
val fill_lognormals :
  t -> Columns.ba -> pos:int -> len:int -> mu:float -> sigma:float -> unit

(** [shuffle t arr] — in-place Fisher-Yates. *)
val shuffle : t -> 'a array -> unit

(** [choose t arr] — uniform element of a non-empty array. *)
val choose : t -> 'a array -> 'a
