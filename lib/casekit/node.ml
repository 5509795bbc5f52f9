type combinator = All | Any

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

let goal ~id ~statement ?(combinator = All) ?(assumptions = []) children =
  if id = "" then invalid_arg "Node.goal: empty id";
  if children = [] then invalid_arg "Node.goal: a goal needs support";
  Goal { id; statement; combinator; assumptions; supported_by = children }

let evidence ~id ~statement ~confidence =
  if id = "" then invalid_arg "Node.evidence: empty id";
  if not (confidence > 0.0 && confidence <= 1.0) then
    invalid_arg "Node.evidence: confidence must be in (0,1]";
  Evidence { id; statement; confidence }

let assumption ~id ~statement ~p_valid =
  if id = "" then invalid_arg "Node.assumption: empty id";
  if not (p_valid > 0.0 && p_valid <= 1.0) then
    invalid_arg "Node.assumption: p_valid must be in (0,1]";
  { aid = id; a_statement = statement; p_valid }

let id = function Goal g -> g.id | Evidence e -> e.id

(* Iterative preorder (explicit worklist): the same visit order as the
   old recursive [List.fold_left (fold f) (f acc node)], but safe on
   10^5-deep chains. *)
let fold f acc node =
  let rec go acc = function
    | [] -> acc
    | (Evidence _ as n) :: rest -> go (f acc n) rest
    | (Goal g as n) :: rest -> go (f acc n) (g.supported_by @ rest)
  in
  go acc [ node ]

let validate t =
  (* Node and assumption ids share one namespace; a single pass over a
     Hashtbl keeps validation linear (the old List.mem scan was O(n^2),
     which a 10^5-node case turned into minutes). *)
  let seen = Hashtbl.create 256 in
  let record id =
    if Hashtbl.mem seen id then
      invalid_arg (Printf.sprintf "Node.validate: duplicate id %s" id);
    Hashtbl.add seen id ()
  in
  fold
    (fun () node ->
      record (id node);
      match node with
      | Evidence _ -> ()
      | Goal g -> List.iter (fun a -> record a.aid) g.assumptions)
    () t

let size t = fold (fun n _ -> n + 1) 0 t

let depth t =
  (* Iterative: track (node, level) pairs, take the max leafward level. *)
  let rec go best = function
    | [] -> best
    | (Evidence _, d) :: rest -> go (if d > best then d else best) rest
    | (Goal g, d) :: rest ->
      let best = if d > best then d else best in
      go best (List.fold_left (fun acc c -> (c, d + 1) :: acc) rest g.supported_by)
  in
  go 1 [ (t, 1) ]

let find t ~id:wanted =
  fold
    (fun acc node -> match acc with Some _ -> acc | None -> if id node = wanted then Some node else None)
    None t

let leaves t =
  fold
    (fun acc node -> match node with Evidence _ -> node :: acc | Goal _ -> acc)
    [] t
  |> List.rev

let render t =
  let buf = Buffer.create 256 in
  let rec go indent node =
    let pad = String.make (2 * indent) ' ' in
    (match node with
    | Evidence e ->
      Buffer.add_string buf
        (Printf.sprintf "%s[E] %s: %s (confidence %.4g)\n" pad e.id
           e.statement e.confidence)
    | Goal g ->
      let comb = match g.combinator with All -> "ALL" | Any -> "ANY" in
      Buffer.add_string buf
        (Printf.sprintf "%s[G] %s: %s (%s of %d)\n" pad g.id g.statement comb
           (List.length g.supported_by));
      List.iter
        (fun a ->
          Buffer.add_string buf
            (Printf.sprintf "%s  [A] %s: %s (valid with p=%.4g)\n" pad a.aid
               a.a_statement a.p_valid))
        g.assumptions;
      List.iter (go (indent + 1)) g.supported_by)
  in
  go 0 t;
  Buffer.contents buf
