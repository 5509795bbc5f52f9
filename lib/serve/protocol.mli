(** The wire format of [confcase serve]: one JSON value per line
    (newline-delimited JSON), hand-rolled like the emitters in
    {!Analysis.Diagnostic} — the toolchain has no JSON dependency and
    this keeps it that way.

    The parser accepts standard JSON (RFC 8259): objects, arrays,
    strings with escapes (including [\uXXXX] with surrogate pairs,
    decoded to UTF-8), numbers, [true]/[false]/[null].  The printer
    emits a canonical single-line rendering whose numbers round-trip
    float64 bit for bit ([parse (print v)] preserves every number's
    bits; {!add_num} gives the exact layout), which is what lets
    responses carry confidences that clients can compare bitwise — and,
    belt and braces, every response value that matters also carries its
    raw bits as a [bits] hex string. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** [parse s] — the single JSON value in [s] (leading/trailing
    whitespace allowed; anything else after the value is an error).
    @raise Parse_error with a position-carrying message. *)
val parse : string -> t

(** [print v] — canonical single-line rendering, no trailing newline:
    no whitespace, object members in list order, strings as
    {!add_string}, numbers as {!add_num}. *)
val print : t -> string

(** {2 Writing into a buffer}

    [print] is [add_value] into a fresh buffer; responses too large to
    build as a value tree (trajectories) are written piecewise with the
    same functions, so their bytes are the ones [print] would give. *)

(** [add_value buf v] — [print v] appended to [buf]. *)
val add_value : Buffer.t -> t -> unit

(** [add_num buf x] — the number layout.  Clients compare these bytes,
    so the rules are exact:
    - a non-finite [x] prints as [null] (JSON has no spelling for it);
    - an integral [x] with [|x| < 1e15] prints as its integer in
      decimal, with a [-] for negatives and for [-0.0] (["-0"]), as
      [%.0f] prints it;
    - any other [x] prints its shortest round-trip digits D (the fewest
      significant digits that parse back to [x]'s bits; the one closest
      to [x] when several qualify), d of them, laid out as [%.{P}g]
      would lay them out with P = max 15 d: exponent form
      [D1.D2..Dde±XX] when the decimal exponent X is below -4 or at
      least P, with a sign and at least two exponent digits, and fixed
      form otherwise; no trailing zeros and no trailing point either
      way.
    This is byte for byte the first of [%.15g], [%.16g], [%.17g] whose
    text parses back to [x]'s bits, so [parse (print (Num x))] has
    [x]'s bits for every finite [x]. *)
val add_num : Buffer.t -> float -> unit

(** [add_string buf s] — [s] as a quoted JSON string: the quote and
    the backslash take a backslash, newline, carriage return and tab
    print as [\n], [\r], [\t], the other control bytes as [\u00XX]
    (lower-case hex), and every other byte verbatim. *)
val add_string : Buffer.t -> string -> unit

(** [add_bits buf b] — {!hex_of_bits}[ b] appended to [buf], unquoted. *)
val add_bits : Buffer.t -> int64 -> unit

(** {1 Accessors} — shape-checked lookups for request decoding. *)

(** [member k v] — field [k] of an object, [None] on missing key or
    non-object. *)
val member : string -> t -> t option

val get_string : t -> string option
val get_num : t -> float option

(** [get_int v] — [Num x] when [x] is integral and in [int] range. *)
val get_int : t -> int option

val get_bool : t -> bool option

(** {1 Bit strings} — the exactness side-channel. *)

(** [hex_of_bits b] — ["0x%016Lx"] of a float's bits. *)
val hex_of_bits : int64 -> string

(** [bits_of_hex s] — inverse of {!hex_of_bits}; [None] on malformed
    input. *)
val bits_of_hex : string -> int64 option
