(* Reference implementations of the case-file front end, kept as oracles
   for the single-scan pipeline (Case_format.scan/load and the row-sweep
   Case_rules): the list parser that went text -> raw list -> Node.t tree,
   and the lint that rebuilt a lenient tree and walked it; and of the
   evaluator, as oracle for the CSR Graph kernels: the List folds over a
   Node.t tree that Graph.propagate must match bit for bit.  Written for
   clarity, not speed.  The lexer follows the same escaping rule as the
   format: inside a statement a backslash escapes a backslash, a double
   quote or n (newline); any other backslash sequence is an error. *)

module D = Analysis.Diagnostic
module N = Casekit.Node

exception Parse_error = Casekit.Case_format.Parse_error

let fail ?(col = 1) ?(token = "") line message =
  raise (Parse_error { line; col; token; message })

type item =
  | Goal of N.combinator
  | Evidence of float
  | Assume of float

type raw = {
  line : int;
  indent : int;
  id : string;
  id_col : int;
  statement : string;
  value_col : int;
  item : item;
}

(* --- lexing ------------------------------------------------------------------ *)

let indent_of line_no raw =
  let rec count i =
    if i < String.length raw && raw.[i] = ' ' then count (i + 1) else i
  in
  let spaces = count 0 in
  if spaces mod 2 <> 0 then
    fail ~col:(spaces + 1) line_no "odd indentation (use 2 spaces)";
  spaces / 2

let unescape s =
  let buf = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then
      if s.[i] = '\\' then begin
        Buffer.add_char buf (if s.[i + 1] = 'n' then '\n' else s.[i + 1]);
        go (i + 2)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let split_parts line_no s =
  let n = String.length s in
  let rec skip_spaces i = if i < n && s.[i] = ' ' then skip_spaces (i + 1) else i in
  let word_end i =
    let rec go j = if j < n && s.[j] <> ' ' then go (j + 1) else j in
    go i
  in
  let i0 = skip_spaces 0 in
  let i1 = word_end i0 in
  if i0 = i1 then fail ~col:(i0 + 1) line_no "empty line slipped through";
  let kind = String.sub s i0 (i1 - i0) in
  let i2 = skip_spaces i1 in
  let i3 = word_end i2 in
  if i2 = i3 then fail ~col:(i2 + 1) line_no "missing node id";
  let id = String.sub s i2 (i3 - i2) in
  let i4 = skip_spaces i3 in
  if i4 >= n || s.[i4] <> '"' then
    fail ~col:(i4 + 1)
      ~token:(String.sub s i4 (word_end i4 - i4))
      line_no "expected a quoted statement";
  let rec find_close j =
    if j >= n then
      fail ~col:(i4 + 1) ~token:(String.sub s i4 (n - i4)) line_no
        "unterminated statement quote"
    else if s.[j] = '"' then j
    else if s.[j] = '\\' && j + 1 < n then
      match s.[j + 1] with
      | '\\' | '"' | 'n' -> find_close (j + 2)
      | _ ->
        let token = String.sub s j 2 in
        fail ~col:(j + 1) ~token line_no
          (Printf.sprintf "unknown escape %s in statement" token)
    else find_close (j + 1)
  in
  let close = find_close (i4 + 1) in
  let statement = unescape (String.sub s (i4 + 1) (close - i4 - 1)) in
  let i5 = skip_spaces (close + 1) in
  let rest = String.trim (String.sub s (close + 1) (n - close - 1)) in
  ((kind, i0 + 1), (id, i2 + 1), statement, (rest, i5 + 1))

let parse_line number raw =
  let indent = indent_of number raw in
  let (kind, kind_col), (id, id_col), statement, (rest, rest_col) =
    split_parts number raw
  in
  let value_col = if rest = "" then id_col else rest_col in
  let value what =
    match float_of_string_opt rest with
    | Some v -> v
    | None ->
      fail ~col:value_col ~token:rest number
        (if rest = "" then what else Printf.sprintf "%s, got %S" what rest)
  in
  let item =
    match kind with
    | "goal" -> (
      match rest with
      | "all" | "" -> Goal N.All
      | "any" -> Goal N.Any
      | other ->
        fail ~col:rest_col ~token:other number
          (Printf.sprintf "unknown combinator %S" other))
    | "evidence" -> Evidence (value "evidence needs a confidence value")
    | "assume" -> Assume (value "assume needs a validity probability")
    | other ->
      fail ~col:kind_col ~token:other number
        (Printf.sprintf "unknown node kind %S" other)
  in
  { line = number; indent; id; id_col; statement; value_col; item }

let parse_raw text =
  String.split_on_char '\n' text
  |> List.mapi (fun i raw -> (i + 1, raw))
  |> List.filter (fun (_, raw) ->
         let t = String.trim raw in
         t <> "" && t.[0] <> '#')
  |> List.map (fun (number, raw) -> parse_line number raw)

(* --- the strict tree parser ---------------------------------------------------- *)

let rec build_children parent_indent nodes =
  match nodes with
  | [] -> ([], [], [])
  | rn :: _ when rn.indent <= parent_indent -> ([], [], nodes)
  | rn :: rest -> (
    if rn.indent > parent_indent + 1 then
      fail ~col:(2 * rn.indent) rn.line "indentation jumps more than one level";
    match rn.item with
    | Assume p_valid ->
      let a =
        try N.assumption ~id:rn.id ~statement:rn.statement ~p_valid
        with Invalid_argument msg -> fail ~col:rn.value_col rn.line msg
      in
      let assumptions, children, remaining = build_children parent_indent rest in
      (a :: assumptions, children, remaining)
    | Evidence confidence ->
      let node =
        try N.evidence ~id:rn.id ~statement:rn.statement ~confidence
        with Invalid_argument msg -> fail ~col:rn.value_col rn.line msg
      in
      let assumptions, children, remaining = build_children parent_indent rest in
      (assumptions, node :: children, remaining)
    | Goal combinator ->
      let assumptions_in, children_in, after = build_children rn.indent rest in
      let node =
        try
          N.goal ~id:rn.id ~statement:rn.statement ~combinator
            ~assumptions:assumptions_in children_in
        with Invalid_argument msg -> fail ~col:rn.id_col rn.line msg
      in
      let assumptions, children, remaining = build_children parent_indent after in
      (assumptions, node :: children, remaining))

let check_duplicate_ids nodes =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun rn ->
      match Hashtbl.find_opt seen rn.id with
      | Some first ->
        fail ~col:rn.id_col ~token:rn.id rn.line
          (Printf.sprintf "duplicate id %s (first declared at line %d)" rn.id
             first)
      | None -> Hashtbl.add seen rn.id rn.line)
    nodes

let parse text =
  match parse_raw text with
  | [] -> fail 0 "empty case"
  | root :: _ when root.indent <> 0 ->
    fail ~col:1 root.line "root must not be indented"
  | root :: rest as nodes -> (
    check_duplicate_ids nodes;
    match root.item with
    | Goal combinator -> (
      let assumptions, children, remaining = build_children 0 rest in
      match remaining with
      | extra :: _ -> fail ~col:extra.id_col extra.line "multiple root nodes"
      | [] ->
        let node =
          try
            N.goal ~id:root.id ~statement:root.statement ~combinator
              ~assumptions children
          with Invalid_argument msg -> fail ~col:root.id_col root.line msg
        in
        N.validate node;
        node)
    | Evidence confidence ->
      (match rest with
      | next :: _ -> fail ~col:next.id_col next.line "content after evidence root"
      | [] -> ());
      (try N.evidence ~id:root.id ~statement:root.statement ~confidence
       with Invalid_argument msg -> fail ~col:root.value_col root.line msg)
    | Assume _ ->
      fail ~col:root.id_col ~token:root.id root.line
        "an assumption cannot be the root")

(* --- the tree lint ------------------------------------------------------------- *)

(* Every raw node is attached to the nearest enclosing shallower node. *)
type tree = {
  rn : raw;
  mutable kids : tree list; (* reverse source order *)
  mutable assumes : raw list;
}

let is_assume rn = match rn.item with Assume _ -> true | _ -> false

let build_forest nodes =
  let diags = ref [] in
  let emit ~code ~severity ~line ?col msg =
    diags := D.make ~code ~severity ~line ?col msg :: !diags
  in
  let roots = ref [] and stack = ref [] in
  List.iteri
    (fun i rn ->
      let rec pop () =
        match !stack with
        | top :: rest when top.rn.indent >= rn.indent ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      let t = { rn; kids = []; assumes = [] } in
      (match !stack with
      | [] ->
        if !roots <> [] then
          emit ~code:"C011" ~severity:D.Error ~line:rn.line ~col:rn.id_col
            (Printf.sprintf
               "node %s is a second root: a case document holds one argument"
               rn.id)
        else if i = 0 && rn.indent > 0 then
          emit ~code:"C010" ~severity:D.Error ~line:rn.line
            "root must not be indented";
        if is_assume rn then
          emit ~code:"C006" ~severity:D.Error ~line:rn.line ~col:rn.id_col
            (Printf.sprintf
               "assumption %s is attached to no goal (it is at top level)" rn.id);
        roots := t :: !roots
      | parent :: _ ->
        if rn.indent > parent.rn.indent + 1 then
          emit ~code:"C010" ~severity:D.Error ~line:rn.line
            (Printf.sprintf "indentation jumps more than one level (%d to %d)"
               parent.rn.indent rn.indent);
        (match parent.rn.item with
        | Evidence _ ->
          if is_assume rn then
            emit ~code:"C006" ~severity:D.Error ~line:rn.line ~col:rn.id_col
              (Printf.sprintf
                 "assumption %s is attached to evidence %s, not a goal" rn.id
                 parent.rn.id)
          else
            emit ~code:"C012" ~severity:D.Error ~line:rn.line ~col:rn.id_col
              (Printf.sprintf "evidence %s cannot support child %s"
                 parent.rn.id rn.id)
        | _ -> ());
        if is_assume rn then parent.assumes <- rn :: parent.assumes
        else parent.kids <- t :: parent.kids);
      if not (is_assume rn) then stack := t :: !stack)
    nodes;
  (List.rev !roots, List.rev !diags)

let check_duplicates nodes =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun rn ->
      match Hashtbl.find_opt seen rn.id with
      | Some first ->
        Some
          (D.make ~code:"C001" ~severity:D.Error ~line:rn.line ~col:rn.id_col
             (Printf.sprintf "duplicate node id %s (first declared at line %d)"
                rn.id first))
      | None ->
        Hashtbl.add seen rn.id rn.line;
        None)
    nodes

let check_values nodes =
  List.concat_map
    (fun rn ->
      let value =
        match rn.item with
        | Evidence c -> Some ("confidence", c)
        | Assume p -> Some ("validity probability", p)
        | Goal _ -> None
      in
      match value with
      | None -> []
      | Some (what, v) ->
        if not (v > 0.0 && v <= 1.0) then
          [ D.make ~code:"C002" ~severity:D.Error ~line:rn.line ~col:rn.value_col
              (Printf.sprintf "%s %g of %s is outside (0,1]" what v rn.id) ]
        else if v = 1.0 then
          [ D.make ~code:"C003" ~severity:D.Warning ~line:rn.line
              ~col:rn.value_col
              (Printf.sprintf
                 "%s 1.0 of %s claims certainty; the paper's point is that \
                  doubt never vanishes — use a value below 1"
                 what rn.id) ]
        else [])
    nodes

let max_depth = Analysis.Case_rules.max_depth
let max_fan_out = Analysis.Case_rules.max_fan_out

let rec check_shape t =
  let own =
    match t.rn.item with
    | Goal combinator ->
      let n = List.length t.kids in
      let mk code severity msg =
        [ D.make ~code ~severity ~line:t.rn.line ~col:t.rn.id_col msg ]
      in
      if n = 0 then
        mk "C004" D.Error
          (Printf.sprintf "goal %s has no supporting children" t.rn.id)
      else if n = 1 then
        mk "C005" D.Warning
          (match combinator with
          | N.Any ->
            Printf.sprintf
              "`any` goal %s has a single leg: the alternative is vacuous"
              t.rn.id
          | N.All ->
            Printf.sprintf
              "goal %s has a single child: it adds a layer without adding an \
               argument"
              t.rn.id)
      else if n > max_fan_out then
        mk "C008" D.Warning
          (Printf.sprintf
             "goal %s combines %d children (more than %d): consider grouping \
              them into subgoals"
             t.rn.id n max_fan_out)
      else []
    | _ -> []
  in
  own @ List.concat_map check_shape (List.rev t.kids)

let rec depth t = 1 + List.fold_left (fun acc k -> max acc (depth k)) 0 t.kids

let check_depth root =
  let d = depth root in
  if d > max_depth then
    [ D.make ~code:"C007" ~severity:D.Warning ~line:root.rn.line
        ~col:root.rn.id_col
        (Printf.sprintf
           "argument is %d levels deep (more than %d): deep chains multiply \
            doubt and are hard to review"
           d max_depth) ]
  else []

let normalise s = String.lowercase_ascii (String.trim s)

let rec evidence_leaves t =
  match t.rn.item with
  | Evidence _ -> [ t.rn ]
  | _ -> List.concat_map evidence_leaves (List.rev t.kids)

let rec check_shared_evidence t =
  let own =
    match t.rn.item with
    | Goal N.Any when List.length t.kids >= 2 ->
      let leg_leaves = List.map evidence_leaves (List.rev t.kids) in
      let first_cite = Hashtbl.create 16 in
      let distinct = ref 0 and shared = ref 0 in
      List.iteri
        (fun leg leaves ->
          List.iter
            (fun ev ->
              let key = normalise ev.statement in
              match Hashtbl.find_opt first_cite key with
              | None ->
                incr distinct;
                Hashtbl.add first_cite key (leg, ev, ref false)
              | Some (first_leg, _, counted) ->
                if first_leg <> leg && not !counted then begin
                  counted := true;
                  incr shared
                end)
            leaves)
        leg_leaves;
      let fraction =
        if !distinct = 0 then 0.0
        else float_of_int !shared /. float_of_int !distinct
      in
      List.concat
        (List.mapi
           (fun leg leaves ->
             List.filter_map
               (fun ev ->
                 match Hashtbl.find_opt first_cite (normalise ev.statement) with
                 | Some (first_leg, first, _) when first_leg <> leg ->
                   Some
                     (D.make ~code:"C009" ~severity:D.Warning ~line:ev.line
                        ~col:ev.id_col
                        ~data:[ ("overlap_fraction", fraction) ]
                        (Printf.sprintf
                           "evidence %s restates %s (line %d) from another \
                            leg of `any` goal %s: the legs are not \
                            independent, which invalidates multi-leg \
                            composition (%.0f%% of this goal's evidence is \
                            shared)"
                           ev.id first.id first.line t.rn.id
                           (100.0 *. fraction)))
                 | _ -> None)
               leaves)
           leg_leaves)
    | _ -> []
  in
  own @ List.concat_map check_shared_evidence (List.rev t.kids)

let check text =
  match parse_raw text with
  | exception Parse_error e ->
    [ D.make ~code:"C000" ~severity:D.Error ~line:e.line ~col:e.col e.message ]
  | [] -> [ D.make ~code:"C000" ~severity:D.Error ~line:0 "empty case document" ]
  | nodes ->
    let roots, structural = build_forest nodes in
    structural @ check_duplicates nodes @ check_values nodes
    @ List.concat_map check_shape roots
    @ List.concat_map check_depth roots
    @ List.concat_map check_shared_evidence roots
    |> D.sort

(* --- the tree evaluator --------------------------------------------------------- *)

module G = Casekit.Graph

let check_conf c =
  if not (c >= 0.0 && c <= 1.0) then
    invalid_arg "Case_oracle: confidence out of [0,1]"

let check_rho rho =
  if not (rho >= 0.0 && rho <= 1.0) then
    invalid_arg "Case_oracle: rho out of [0,1]"

let and_independent = List.fold_left ( *. ) 1.0
let and_comonotone = List.fold_left min 1.0

let and_frechet_lower cs =
  let n = float_of_int (List.length cs) in
  max 0.0 (List.fold_left ( +. ) 0.0 cs -. (n -. 1.0))

let or_independent cs =
  1.0 -. List.fold_left (fun acc c -> acc *. (1.0 -. c)) 1.0 cs

let or_comonotone = List.fold_left max 0.0
let or_frechet_upper cs = min 1.0 (List.fold_left ( +. ) 0.0 cs)

(* P(all hold) for the given marginal confidences. *)
let and_combine dep cs =
  List.iter check_conf cs;
  match dep with
  | G.Independent -> and_independent cs
  | G.Frechet_lower -> and_frechet_lower cs
  | G.Frechet_upper -> and_comonotone cs
  | G.Correlated rho ->
    check_rho rho;
    ((1.0 -. rho) *. and_independent cs) +. (rho *. and_comonotone cs)

(* P(at least one holds). *)
let or_combine dep cs =
  List.iter check_conf cs;
  match dep with
  | G.Independent -> or_independent cs
  | G.Frechet_lower -> or_comonotone cs
  | G.Frechet_upper -> or_frechet_upper cs
  | G.Correlated rho ->
    check_rho rho;
    ((1.0 -. rho) *. or_independent cs) +. (rho *. or_comonotone cs)

(* A goal combines its children, then multiplies in each assumption's
   validity. *)
let rec confidence dep = function
  | N.Evidence e -> e.confidence
  | N.Goal g ->
    let cs = List.map (confidence dep) g.supported_by in
    let combined =
      match g.combinator with
      | N.All -> and_combine dep cs
      | N.Any -> or_combine dep cs
    in
    combined
    *. List.fold_left (fun acc (a : N.assumption) -> acc *. a.p_valid) 1.0
         g.assumptions

(* The tree with evidence [id] set to [c].
   @raise Not_found if no evidence has that id. *)
let what_if node ~id ~confidence:c =
  let found = ref false in
  let rec go = function
    | N.Evidence e when e.id = id ->
      found := true;
      N.evidence ~id ~statement:e.statement ~confidence:c
    | N.Evidence _ as leaf -> leaf
    | N.Goal g -> N.Goal { g with supported_by = List.map go g.supported_by }
  in
  let updated = go node in
  if not !found then raise Not_found;
  updated

(* The tree with assumption [id] set to [p].
   @raise Not_found if no assumption has that id. *)
let what_if_assumption node ~id ~p_valid:p =
  let found = ref false in
  let rec go = function
    | N.Evidence _ as leaf -> leaf
    | N.Goal g ->
      let assumptions =
        List.map
          (fun (a : N.assumption) ->
            if a.aid = id then begin
              found := true;
              { a with p_valid = p }
            end
            else a)
          g.assumptions
      in
      N.Goal { g with assumptions; supported_by = List.map go g.supported_by }
  in
  let updated = go node in
  if not !found then raise Not_found;
  updated
