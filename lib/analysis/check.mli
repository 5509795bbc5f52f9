(** File-level driver for the static analyser: decide what a document is
    and run the matching rule set. *)

type kind = Case | Belief

val kind_to_string : kind -> string

(** [kind_of_path path] — from the [.case] / [.belief] extension. *)
val kind_of_path : string -> kind option

(** [sniff text] — guess the kind from the first meaningful line (a
    case document starts with [goal]/[evidence]/[assume]). *)
val sniff : string -> kind

(** [check_string ?file kind text] — the matching rule set, with [file]
    attached to every diagnostic. *)
val check_string : ?file:string -> kind -> string -> Diagnostic.t list

(** [read_file path] — the whole file in one sized read, or
    [Error "path: reason"] when it cannot be read (missing, a directory,
    no permission). *)
val read_file : string -> (string, string) result

(** [check_file path] — read, classify (extension, then {!sniff}) and
    check.  An unreadable file yields a single [F000] error diagnostic
    rather than raising, so one bad path does not abort a multi-file
    check run. *)
val check_file : string -> Diagnostic.t list

(** The rendered code table ([confcase check --codes]). *)
val codes_table : unit -> string
