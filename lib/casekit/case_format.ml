(* Parse errors carry the 1-based line and column of the offending token and
   the token itself.  The historical { line; message } fields are a subset of
   the new payload, so code written against the old shape keeps compiling. *)
exception
  Parse_error of { line : int; col : int; token : string; message : string }

let fail ?(col = 1) ?(token = "") line message =
  raise (Parse_error { line; col; token; message })

(* --- the row table: one left-to-right scan --------------------------------- *)

type row_kind = All_goal | Any_goal | Evidence | Assume

type rows = {
  n : int;
  line : int array;
  indent : int array;
  kind : row_kind array;
  id : string array;
  statement : string array;
  value : float array;
  id_col : int array;
  value_col : int array;
  parent : int array;
}

(* Lexing helpers over [text.[i] .. text.[e - 1]]: top-level functions
   rather than closures, so lexing a line allocates little beyond the
   strings its row keeps. *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012' || c = '\n'

let rec skip_spaces text i e =
  if i < e && String.unsafe_get text i = ' ' then skip_spaces text (i + 1) e
  else i

let rec word_end text i e =
  if i < e && String.unsafe_get text i <> ' ' then word_end text (i + 1) e
  else i

let number lno col token missing =
  match float_of_string_opt token with
  | Some v -> v
  | None ->
    fail ~col ~token lno
      (if token = "" then missing else Printf.sprintf "%s, got %S" missing token)

(* Lex line [lno], the bytes [s, e), into row [i] of [r]: false for a blank
   or comment line.  Errors come in the order the tokens do. *)
let scan_line text (r : rows) i lno s e =
  let f = ref s in
  while !f < e && is_blank (String.unsafe_get text !f) do incr f done;
  !f < e
  && String.unsafe_get text !f <> '#'
  &&
  let col j = j - s + 1 in
  let i0 = skip_spaces text s e in
  if (i0 - s) land 1 = 1 then
    fail ~col:(col i0) lno "odd indentation (use 2 spaces)";
  let i1 = word_end text i0 e in
  let i2 = skip_spaces text i1 e in
  let i3 = word_end text i2 e in
  if i2 = i3 then fail ~col:(col i2) lno "missing node id";
  let i4 = skip_spaces text i3 e in
  if i4 >= e || text.[i4] <> '"' then
    fail ~col:(col i4) ~token:(String.sub text i4 (word_end text i4 e - i4)) lno
      "expected a quoted statement";
  (* The closing quote; a backslash escapes a backslash, a quote or n. *)
  let q = ref (i4 + 1) and escaped = ref false in
  while !q < e && text.[!q] <> '"' do
    if text.[!q] = '\\' && !q + 1 < e then begin
      if not (String.contains "\\\"n" text.[!q + 1]) then begin
        let token = String.sub text !q 2 in
        fail ~col:(col !q) ~token lno
          (Printf.sprintf "unknown escape %s in statement" token)
      end;
      escaped := true;
      incr q
    end;
    incr q
  done;
  let q = !q in
  if q >= e then
    fail ~col:(col i4) ~token:(String.sub text i4 (e - i4)) lno
      "unterminated statement quote";
  (* The trailing token [a, b), trimmed as String.trim would. *)
  let rest_col = col (skip_spaces text (q + 1) e) in
  let a = ref (q + 1) and b = ref e in
  while !a < !b && is_blank (String.unsafe_get text !a) do incr a done;
  while !b > !a && is_blank (String.unsafe_get text (!b - 1)) do decr b done;
  let a = !a and b = !b in
  let value_col = if a = b then col i2 else rest_col in
  let rest = String.sub text a (b - a) in
  (match String.sub text i0 (i1 - i0) with
  | "goal" ->
    r.kind.(i) <-
      (match rest with
      | "all" | "" -> All_goal
      | "any" -> Any_goal
      | token ->
        fail ~col:rest_col ~token lno
          (Printf.sprintf "unknown combinator %S" token))
  | "evidence" ->
    r.kind.(i) <- Evidence;
    r.value.(i) <- number lno value_col rest "evidence needs a confidence value"
  | "assume" ->
    r.kind.(i) <- Assume;
    r.value.(i) <- number lno value_col rest "assume needs a validity probability"
  | token ->
    fail ~col:(col i0) ~token lno (Printf.sprintf "unknown node kind %S" token));
  let statement = String.sub text (i4 + 1) (q - i4 - 1) in
  r.line.(i) <- lno;
  r.indent.(i) <- (i0 - s) / 2;
  r.id.(i) <- String.sub text i2 (i3 - i2);
  r.statement.(i) <- (if !escaped then Scanf.unescaped statement else statement);
  r.id_col.(i) <- col i2;
  r.value_col.(i) <- value_col;
  true

let scan text =
  let len = String.length text in
  let rec lines i k =
    match String.index_from_opt text i '\n' with
    | Some j -> lines (j + 1) (k + 1)
    | None -> k
  in
  let cap = lines 0 1 in
  let r =
    { n = 0; line = Array.make cap 0; indent = Array.make cap 0;
      kind = Array.make cap Evidence; id = Array.make cap "";
      statement = Array.make cap ""; value = Array.make cap 0.0;
      id_col = Array.make cap 0; value_col = Array.make cap 0;
      parent = Array.make cap (-1) }
  in
  (* Lenient parents: an indent stack of non-assumption rows, from which
     every row pops the entries at least as deep as itself. *)
  let stack = Array.make cap 0 and depth = ref 0 in
  let n = ref 0 and start = ref 0 and lno = ref 1 in
  while !start <= len do
    let stop = Option.value (String.index_from_opt text !start '\n') ~default:len in
    let i = !n in
    if scan_line text r i !lno !start stop then begin
      while !depth > 0 && r.indent.(stack.(!depth - 1)) >= r.indent.(i) do
        decr depth
      done;
      if !depth > 0 then r.parent.(i) <- stack.(!depth - 1);
      if r.kind.(i) <> Assume then begin
        stack.(!depth) <- i;
        incr depth
      end;
      n := i + 1
    end;
    start := stop + 1;
    incr lno
  done;
  { r with n = !n }

(* --- the raw view ------------------------------------------------------------ *)

type raw_item =
  | Raw_goal of { combinator : Node.combinator }
  | Raw_evidence of { confidence : float }
  | Raw_assume of { p_valid : float }

type raw_node = {
  line : int;
  indent : int;
  id : string;
  id_col : int;
  statement : string;
  value_col : int;
  item : raw_item;
}

let parse_raw text =
  let r = scan text in
  let raw i =
    let item =
      match r.kind.(i) with
      | All_goal -> Raw_goal { combinator = Node.All }
      | Any_goal -> Raw_goal { combinator = Node.Any }
      | Evidence -> Raw_evidence { confidence = r.value.(i) }
      | Assume -> Raw_assume { p_valid = r.value.(i) }
    in
    { line = r.line.(i); indent = r.indent.(i); id = r.id.(i);
      id_col = r.id_col.(i); statement = r.statement.(i);
      value_col = r.value_col.(i); item }
  in
  (* Back to front: one list, where [List.init] builds two at this size. *)
  let rec from i acc = if i < 0 then acc else from (i - 1) (raw i :: acc) in
  from (r.n - 1) []

(* --- the strict loader --------------------------------------------------------

   Rows go into [Graph.Builder] children first, siblings in source order:
   the order [Graph.of_node] visits a tree in, so indices, values and
   structural hashes match the tree path bit for bit.  Open goals sit on a
   stack, the goal at depth [d] having indent [d]; a row closes every open
   goal but the root at least as deep as itself. *)

let sweep ({ n; _ } as r) =
  let b = Graph.Builder.create ~capacity:n () in
  let builder i f =
    try f () with Invalid_argument m -> fail ~col:r.id_col.(i) r.line.(i) m
  in
  (* [kids.(0 .. nkids - 1)]: the emitted children of the open goals. *)
  let row_of = Array.make n 0 and kids = Array.make n 0 and nkids = ref 0 in
  let emit i idx =
    row_of.(idx) <- i;
    kids.(!nkids) <- idx;
    incr nkids
  in
  let slots = 1 + Array.fold_left max 0 r.indent in
  let open_row = Array.make slots 0 and open_base = Array.make slots 0 in
  let assumptions = Array.make slots [] and d = ref 0 in
  let close () =
    decr d;
    let g = open_row.(!d) and base = open_base.(!d) in
    if !nkids = base then
      fail ~col:r.id_col.(g) r.line.(g) "Node.goal: a goal needs support";
    let children = Array.sub kids base (!nkids - base) in
    nkids := base;
    emit g
      (builder g (fun () ->
           Graph.Builder.goal b ~id:r.id.(g) ~statement:r.statement.(g)
             ~assumptions:(List.rev assumptions.(!d))
             ~combinator:(if r.kind.(g) = Any_goal then Node.Any else Node.All)
             children))
  in
  if r.kind.(0) = Evidence && n > 1 then
    fail ~col:r.id_col.(1) r.line.(1) "content after evidence root";
  for i = 0 to n - 1 do
    let ind = r.indent.(i) in
    while !d > 1 && !d > ind do close () done;
    if i > 0 && ind = 0 then
      fail ~col:r.id_col.(i) r.line.(i) "multiple root nodes";
    if i > 0 && ind > !d then
      fail ~col:(2 * ind) r.line.(i) "indentation jumps more than one level";
    match r.kind.(i) with
    | Assume when i = 0 ->
      fail ~col:r.id_col.(0) ~token:r.id.(0) r.line.(0)
        "an assumption cannot be the root"
    | Assume ->
      let a =
        try
          Node.assumption ~id:r.id.(i) ~statement:r.statement.(i)
            ~p_valid:r.value.(i)
        with Invalid_argument m -> fail ~col:r.value_col.(i) r.line.(i) m
      in
      assumptions.(!d - 1) <- a :: assumptions.(!d - 1)
    | Evidence ->
      if not (r.value.(i) > 0.0 && r.value.(i) <= 1.0) then
        fail ~col:r.value_col.(i) r.line.(i)
          "Node.evidence: confidence must be in (0,1]";
      emit i
        (builder i (fun () ->
             Graph.Builder.evidence b ~id:r.id.(i) ~statement:r.statement.(i)
               ~confidence:r.value.(i) ()))
    | All_goal | Any_goal ->
      open_row.(!d) <- i;
      open_base.(!d) <- !nkids;
      assumptions.(!d) <- [];
      incr d
  done;
  while !d > 0 do close () done;
  let g = Graph.Builder.build b ~root:kids.(0) in
  (g, Array.sub row_of 0 (Graph.size g))

let load r =
  if r.n = 0 then fail 0 "empty case";
  if r.indent.(0) <> 0 then fail ~col:1 r.line.(0) "root must not be indented";
  try sweep r
  with Parse_error _ as e ->
    (* Duplicate ids outrank every other fault, so the error names both
       lines.  The Builder's interning stops the sweep at a duplicate;
       this finds the first one. *)
    let first = Hashtbl.create 64 in
    for i = 0 to r.n - 1 do
      match Hashtbl.find_opt first r.id.(i) with
      | Some l ->
        fail ~col:r.id_col.(i) ~token:r.id.(i) r.line.(i)
          (Printf.sprintf "duplicate id %s (first declared at line %d)" r.id.(i) l)
      | None -> Hashtbl.add first r.id.(i) r.line.(i)
    done;
    raise e

let parse text = Graph.to_node (fst (load (scan text)))

(* --- printing --------------------------------------------------------------- *)

(* The three escapes [scan_line] reads back. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | ('\\' | '"') as c -> Buffer.add_char buf '\\'; Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let print node =
  let buf = Buffer.create 256 in
  let pad depth = String.make (2 * depth) ' ' in
  let rec go depth = function
    | Node.Evidence e ->
      Printf.bprintf buf "%sevidence %s \"%s\" %.17g\n" (pad depth) e.id
        (escape e.statement) e.confidence
    | Node.Goal g ->
      let comb = match g.combinator with Node.All -> "all" | Node.Any -> "any" in
      Printf.bprintf buf "%sgoal %s \"%s\" %s\n" (pad depth) g.id
        (escape g.statement) comb;
      List.iter
        (fun (a : Node.assumption) ->
          Printf.bprintf buf "%sassume %s \"%s\" %.17g\n" (pad (depth + 1)) a.aid
            (escape a.a_statement) a.p_valid)
        g.assumptions;
      List.iter (go (depth + 1)) g.supported_by
  in
  go 0 node;
  Buffer.contents buf
