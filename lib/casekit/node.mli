(** Goal-structured dependability cases (GSN-style).

    A case is a tree: goals are decomposed through a combinator into
    subgoals, bottoming out in evidence items held with some confidence;
    goals may additionally rest on assumptions that are themselves uncertain
    — the paper's "uncertainty about the underpinnings of the dependability
    case (truth of assumptions, correctness of reasoning, strength of
    evidence)". *)

(** How subgoal support combines. *)
type combinator =
  | All  (** Every subgoal is needed (argument conjunction). *)
  | Any  (** Alternative legs: any subgoal suffices (Section 4.2). *)

type assumption = { aid : string; a_statement : string; p_valid : float }

type t =
  | Goal of {
      id : string;
      statement : string;
      combinator : combinator;
      assumptions : assumption list;
      supported_by : t list;
    }
  | Evidence of { id : string; statement : string; confidence : float }

(** [goal ~id ~statement ?combinator ?assumptions children] — [combinator]
    defaults to [All]; children must be non-empty.  Every constructor
    rejects an empty [id] ([Invalid_argument]): it would print as a node
    line the case-file parser cannot read back. *)
val goal :
  id:string ->
  statement:string ->
  ?combinator:combinator ->
  ?assumptions:assumption list ->
  t list ->
  t

(** [evidence ~id ~statement ~confidence] with confidence in (0, 1]. *)
val evidence : id:string -> statement:string -> confidence:float -> t

(** [assumption ~id ~statement ~p_valid] with p_valid in (0, 1]. *)
val assumption : id:string -> statement:string -> p_valid:float -> assumption

(** [validate t] — checks ids are unique across the tree.
    @raise Invalid_argument on duplicates. *)
val validate : t -> unit

val id : t -> string

(** [fold f acc t] — preorder fold over every node (depth first, children
    left to right); iterative, so safe on arbitrarily deep chains. *)
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

(** [size t] — number of nodes. *)
val size : t -> int

(** [depth t] — 1 for a leaf. *)
val depth : t -> int

(** [find t ~id] — the node with the given id, if present. *)
val find : t -> id:string -> t option

(** [leaves t] — all evidence nodes, left to right. *)
val leaves : t -> t list

(** [render t] — indented text rendering of the case structure. *)
val render : t -> string
