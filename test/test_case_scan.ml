(* The single-scan case pipeline against its oracles (Case_oracle: the list
   parser and tree lint it replaced), on generated valid documents with
   planted defects and on byte-mutated ones. *)

module CF = Casekit.Case_format
module CR = Analysis.Case_rules
module D = Analysis.Diagnostic
module G = Casekit.Graph
module N = Casekit.Node

(* --- documents ------------------------------------------------------------------ *)

(* Statements mix the bytes the printer must escape with normalised
   repeats ("shared evidence" three ways) that plant C009. *)
let shared = [| "Shared evidence"; "  shared EVIDENCE "; "SHARED evidence" |]
let alphabet = "ab \"\\\n\t#"

let statement st k =
  if Random.State.int st 3 = 0 then shared.(Random.State.int st 3)
  else
    String.init (Random.State.int st 6) (fun _ ->
        alphabet.[Random.State.int st (String.length alphabet)])
    ^ string_of_int k

(* Statements, assumptions and planted C003 (value exactly 1) and C005
   (a goal cut down to one child) over a generated tree. *)
let decorate st node =
  let k = ref 0 in
  let next () = incr k; !k in
  let certain v = if Random.State.int st 10 = 0 then 1.0 else v in
  let rec go = function
    | N.Evidence e ->
      N.evidence ~id:e.id ~statement:(statement st (next ()))
        ~confidence:(certain e.confidence)
    | N.Goal g ->
      let kids = List.map go g.supported_by in
      let kids = if Random.State.int st 8 = 0 then [ List.hd kids ] else kids in
      let assumptions =
        List.init (Random.State.int st 3) (fun _ ->
            let k = next () in
            N.assumption ~id:(Printf.sprintf "A%d" k) ~statement:(statement st k)
              ~p_valid:(certain (0.9 +. Random.State.float st 0.09)))
      in
      N.goal ~id:g.id ~statement:(statement st (next ()))
        ~combinator:g.combinator ~assumptions kids
  in
  go node

(* Fanout 1 makes chains deep enough for C007. *)
let document (seed, legs, fanout, depth) =
  let depth = if fanout = 1 then depth + 5 else depth in
  let g = Casekit.Generate.case ~seed ~legs ~fanout ~depth () in
  CF.print (decorate (Random.State.make [| seed |]) (G.to_node g))

let gen_params =
  QCheck2.Gen.(tup4 (int_bound 1_000_000) (int_range 2 3) (int_range 1 3) (int_range 1 3))

let gen_document = QCheck2.Gen.map document gen_params

(* Byte mutations biased towards the format's significant bytes and
   tokens. *)
let tokens =
  [| " "; "\n"; "\""; "\\"; "#"; "\t"; "\r"; "n"; "0"; "1.5"; "-"; "  ";
     "goal "; "evidence "; "assume "; "any"; "all"; "\\q"; "E1 "; "#1 " |]

let mutate text (pos, op, t) =
  let len = String.length text in
  let pos = pos mod (len + 1) in
  let tok = tokens.(t mod Array.length tokens) in
  let cut = min (len - pos) (1 + (t mod 3)) in
  let splice at cut tok =
    String.sub text 0 at ^ tok ^ String.sub text (at + cut) (len - at - cut)
  in
  match op with
  | 0 -> splice pos 0 tok
  | 1 -> splice pos cut ""
  | 2 -> splice pos cut tok
  | _ ->
    (* Re-indent a whole line: a sibling becomes a child, or the reverse. *)
    let start = match String.rindex_from_opt text (pos - 1) '\n' with Some j -> j + 1 | None -> 0 in
    if t mod 2 = 0 then splice start 0 "  "
    else splice start (min 2 (len - start)) ""

let gen_mutated =
  QCheck2.Gen.(
    let* doc = gen_document in
    let* edits =
      list_size (int_range 1 4)
        (triple (int_bound 1_000_000) (int_bound 3) (int_bound 1000))
    in
    pure (List.fold_left mutate doc edits))

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:(Printf.sprintf "%S") gen prop)

(* --- comparisons ------------------------------------------------------------------ *)

let models = [ G.Independent; G.Frechet_lower; G.Frechet_upper; G.Correlated 0.3 ]
let bits = Int64.bits_of_float

(* Bitwise root values under all four models, root hash, ids, kinds,
   child CSR, and the tree with its statements and assumptions. *)
let same_graph a b =
  G.to_node a = G.to_node b
  && G.root a = G.root b
  && List.for_all
       (fun dep -> Int64.equal (bits (G.propagate dep a)) (bits (G.propagate dep b)))
       models
  && Int64.equal (G.root_hash a) (G.root_hash b)
  && List.for_all
       (fun i ->
         G.id_of a i = G.id_of b i
         && G.kind_of a i = G.kind_of b i
         && G.children a i = G.children b i)
       (List.init (G.size a) Fun.id)

let same_diags a b =
  List.length a = List.length b && List.for_all2 (fun x y -> D.compare x y = 0) a b

let outcome f =
  match f () with
  | g -> Ok g
  | exception CF.Parse_error e -> Error (e.line, e.col, e.token, e.message)

let load text = fst (CF.load (CF.scan text))

let load_matches_oracle text =
  match (outcome (fun () -> load text), outcome (fun () -> G.of_node (Case_oracle.parse text))) with
  | Ok a, Ok b -> same_graph a b
  | Error a, Error b -> a = b
  | _ -> false

let rows_match_oracle text =
  let view (r : CF.raw_node) =
    let item =
      match r.item with
      | CF.Raw_goal { combinator } -> Case_oracle.Goal combinator
      | CF.Raw_evidence { confidence } -> Case_oracle.Evidence confidence
      | CF.Raw_assume { p_valid } -> Case_oracle.Assume p_valid
    in
    (r.line, r.indent, r.id, r.id_col, r.statement, r.value_col, item)
  in
  let oracle (r : Case_oracle.raw) =
    (r.line, r.indent, r.id, r.id_col, r.statement, r.value_col, r.item)
  in
  match
    ( outcome (fun () -> List.map view (CF.parse_raw text)),
      outcome (fun () -> List.map oracle (Case_oracle.parse_raw text)) )
  with
  | Ok a, Ok b -> a = b
  | Error a, Error b -> a = b
  | _ -> false

(* --- properties --------------------------------------------------------------------- *)

let test_load_generated =
  qcheck "load = of_node (oracle parse) on generated cases" gen_document
    (fun text ->
      let rows = CF.scan text in
      let g, row_of = CF.load rows in
      same_graph g (G.of_node (Case_oracle.parse text))
      && Array.length row_of = G.size g
      && Array.for_all Fun.id
           (Array.mapi (fun i r -> rows.id.(r) = G.id_of g i) row_of))

let test_check_generated =
  qcheck "check = oracle check on generated cases" gen_document (fun text ->
      let diags = CR.check text in
      same_diags diags (Case_oracle.check text)
      && D.errors diags = 0)

let test_planted =
  Helpers.case "generated cases plant C003, C005, C007 and C009" (fun () ->
      let codes =
        List.concat_map
          (fun seed ->
            List.map
              (fun (d : D.t) -> d.code)
              (CR.check (document (seed, 3, 1 + (seed mod 3), 3))))
          (List.init 30 Fun.id)
      in
      List.iter
        (fun code -> Helpers.check_true code (List.mem code codes))
        [ "C003"; "C005"; "C007"; "C009" ])

let test_rows_mutated =
  qcheck ~count:400 "scan = oracle lexer on mutated documents" gen_mutated
    rows_match_oracle

let test_check_mutated =
  qcheck ~count:400 "check never raises and = oracle on mutated documents"
    gen_mutated (fun text -> same_diags (CR.check text) (Case_oracle.check text))

let test_load_mutated =
  qcheck ~count:400 "load returns or raises Parse_error as the oracle parse"
    gen_mutated load_matches_oracle

let test_load_errors () =
  (* Builder faults come back positioned, never as Invalid_argument. *)
  List.iter
    (fun (text, line, col) ->
      match load text with
      | _ -> Alcotest.failf "expected Parse_error on %S" text
      | exception CF.Parse_error e ->
        Alcotest.(check (pair int int)) text (line, col) (e.line, e.col))
    [ ("goal G \"g\" all\n  assume G \"a\" 0.9\n  evidence E \"e\" 0.9", 2, 10);
      ("goal G \"g\" all\n  evidence E \"e\" 0\n", 2, 18);
      ("goal G \"g\" all\n  goal H \"h\" any\n", 2, 8);
      ("goal G \"bad \\t escape\" all", 1, 13) ]

let test_to_node_names () =
  (* An anonymous node is named [#i], primed while an authored node or
     assumption id already holds that name. *)
  let b = G.Builder.create () in
  let e0 = G.Builder.evidence b ~id:"#1" ~confidence:0.9 () in
  let e1 = G.Builder.evidence b ~confidence:0.8 () in
  let a = N.assumption ~id:"#2" ~statement:"" ~p_valid:0.9 in
  let root = G.Builder.goal b ~assumptions:[ a ] ~combinator:N.All [| e0; e1 |] in
  match G.to_node (G.Builder.build b ~root) with
  | N.Goal g ->
    Alcotest.(check (list string)) "names" [ "#2'"; "#1"; "#1'" ]
      (g.id :: List.map N.id g.supported_by)
  | N.Evidence _ -> Alcotest.fail "expected a goal"

let suite =
  [ test_load_generated;
    test_check_generated;
    test_planted;
    test_rows_mutated;
    test_check_mutated;
    test_load_mutated;
    Helpers.case "load errors are positioned" test_load_errors;
    Helpers.case "to_node primes names authored ids hold" test_to_node_names ]
