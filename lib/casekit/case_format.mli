(** A minimal text format for dependability cases, so cases can live in
    version control next to the system they argue about.

    Indentation-structured, two spaces per level:

    {v
goal G0 "Shutdown system pfd < 1e-3" any
  assume A0 "Demand profile is right" 0.97
  goal G1 "Testing leg" all
    evidence E1 "4600 failure-free demands" 0.99
    evidence E2 "Oracle validated" 0.97
  evidence E3 "Static analysis clean" 0.9
    v}

    Node kinds: [goal ID "statement" all|any], [evidence ID "statement"
    CONF], [assume ID "statement" P_VALID] (assumptions attach to the
    enclosing goal).  Blank lines and [#]-comments are ignored.  Inside a
    statement a backslash escapes a backslash, a double quote, or [n] for
    a newline; any other backslash sequence is a lexical error. *)

(** Raised on malformed input.  [line] and [col] are 1-based; [token] is the
    offending token when one can be isolated (and [""] otherwise).

    The historical payload was [{ line; message }]; the record has gained
    [col] and [token] fields, so matches that bind fields by name — the only
    shape the old interface supported — keep working unchanged. *)
exception
  Parse_error of { line : int; col : int; token : string; message : string }

(** {1 Row table}

    [scan] walks the text once into one struct-of-arrays row per node
    line; every consumer reads the rows, so a command lexes its file once.
    Rows are lenient: they enforce no structural or range invariant, so a
    checker can report every defect while {!load} rejects the first. *)

type row_kind = All_goal | Any_goal | Evidence | Assume

(** Rows [0 .. n - 1] in source order (the arrays may be longer).  Lines
    and columns are 1-based; [indent] counts levels of two spaces;
    [value] is the confidence or p_valid (0 for goals); [value_col] is
    the column of the trailing token (the id's when there is none).
    [parent] is the lenient parent row ([-1] at top level): the top of an
    indent stack of non-assumption rows, from which each row first pops
    the entries at least as deep as itself, so a row's subtree is the
    contiguous range of rows after it. *)
type rows = {
  n : int;
  line : int array;
  indent : int array;
  kind : row_kind array;
  id : string array;
  statement : string array;  (** Unescaped. *)
  value : float array;
  id_col : int array;
  value_col : int array;
  parent : int array;
}

(** [scan text] — the row table.
    @raise Parse_error only on lexical faults. *)
val scan : string -> rows

type raw_item =
  | Raw_goal of { combinator : Node.combinator }
  | Raw_evidence of { confidence : float }
  | Raw_assume of { p_valid : float }

(** One row as a record. *)
type raw_node = {
  line : int;
  indent : int;
  id : string;
  id_col : int;
  statement : string;
  value_col : int;
  item : raw_item;
}

(** [parse_raw text] — the rows of [scan text] as a list.
    @raise Parse_error only on lexical faults. *)
val parse_raw : string -> raw_node list

(** {1 Strict layer} *)

(** [load rows] — the case graph and the source row of each node
    ([row_of.(i)] for node [i]).  Rejects, in this order: an empty
    document, an indented root, duplicate ids (naming the first line),
    then the first structural or range fault in source order.  The graph
    is bit-identical to [Graph.of_node (parse text)].
    @raise Parse_error with position information on malformed input. *)
val load : rows -> Graph.t * int array

(** [parse text] — the root node: [Graph.to_node] of {!load}.
    @raise Parse_error with position information on malformed input. *)
val parse : string -> Node.t

(** [print node] — render back to the format; [parse (print n)] is [n]. *)
val print : Node.t -> string
