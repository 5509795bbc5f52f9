(** Static well-formedness rules for case documents ({!Casekit.Case_format}).

    Codes (stable; [confcase check --codes] prints this table):
    - [C000] error — document does not lex; nothing can be analysed
    - [C001] error — duplicate node id
    - [C002] error — confidence / validity probability outside (0,1]
    - [C003] warning — confidence / validity probability of exactly 1.0
      (overclaimed certainty: the paper's position is that doubt never
      vanishes)
    - [C004] error — goal with no supporting children
    - [C005] warning — goal with a single child (vacuous [any] leg, or pure
      indirection under [all])
    - [C006] error — assumption attached to no goal
    - [C007] warning — argument deeper than {!max_depth} levels
    - [C008] warning — goal with more than {!max_fan_out} children
    - [C009] warning — legs of an [any] goal share evidence (matched by
      normalised statement text), breaking the independence that multi-leg
      composition relies on (paper Section 4.2)
    - [C010] error — indentation fault (level jump, or indented root)
    - [C011] error — multiple root nodes
    - [C012] error — evidence given children *)

val max_depth : int
val max_fan_out : int

(** [(code, severity, one-line description)] for every rule above. *)
val codes : (string * Diagnostic.severity * string) list

(** [scan text] — {!Casekit.Case_format.scan} and every rule above, as
    array sweeps over the rows and their lenient parents: the rows (when
    the document lexes) and the diagnostics, sorted by position.  A
    lexical fault is a single [C000] and no rows; an empty document is
    [C000] at line 0.  Never raises. *)
val scan : string -> Casekit.Case_format.rows option * Diagnostic.t list

(** [check text] — the diagnostics of {!scan}. *)
val check : string -> Diagnostic.t list
