open Helpers
module N = Casekit.Node

let sample_case () =
  N.goal ~id:"G1" ~statement:"System pfd < 1e-3"
    ~assumptions:
      [ N.assumption ~id:"A1" ~statement:"Test oracle is correct" ~p_valid:0.99 ]
    [ N.goal ~id:"G2" ~statement:"Testing leg" ~combinator:N.All
        [ N.evidence ~id:"E1" ~statement:"4600 failure-free tests"
            ~confidence:0.99;
          N.evidence ~id:"E2" ~statement:"Operational profile validated"
            ~confidence:0.95 ];
      N.evidence ~id:"E3" ~statement:"Static analysis clean" ~confidence:0.9 ]

let test_construction_validation () =
  check_raises_invalid "goal without support" (fun () ->
      ignore (N.goal ~id:"g" ~statement:"s" []));
  check_raises_invalid "evidence confidence 0" (fun () ->
      ignore (N.evidence ~id:"e" ~statement:"s" ~confidence:0.0));
  check_raises_invalid "assumption p_valid 0" (fun () ->
      ignore (N.assumption ~id:"a" ~statement:"s" ~p_valid:0.0));
  (* An empty id would print as a node line the parser cannot read. *)
  let e = N.evidence ~id:"e" ~statement:"s" ~confidence:0.5 in
  check_raises_invalid "goal with empty id" (fun () ->
      ignore (N.goal ~id:"" ~statement:"s" [ e ]));
  check_raises_invalid "evidence with empty id" (fun () ->
      ignore (N.evidence ~id:"" ~statement:"s" ~confidence:0.5));
  check_raises_invalid "assumption with empty id" (fun () ->
      ignore (N.assumption ~id:"" ~statement:"s" ~p_valid:0.5))

let test_structure_queries () =
  let c = sample_case () in
  Alcotest.(check int) "size" 5 (N.size c);
  Alcotest.(check int) "depth" 3 (N.depth c);
  Alcotest.(check int) "leaves" 3 (List.length (N.leaves c));
  check_true "find hit" (N.find c ~id:"E2" <> None);
  check_true "find miss" (N.find c ~id:"nope" = None);
  Alcotest.(check string) "root id" "G1" (N.id c)

let test_validate () =
  N.validate (sample_case ());
  let dup =
    N.goal ~id:"G" ~statement:"s"
      [ N.evidence ~id:"E" ~statement:"a" ~confidence:0.9;
        N.evidence ~id:"E" ~statement:"b" ~confidence:0.9 ]
  in
  check_raises_invalid "duplicate ids" (fun () -> N.validate dup);
  let dup_assumption =
    N.goal ~id:"G" ~statement:"s"
      ~assumptions:[ N.assumption ~id:"G" ~statement:"a" ~p_valid:0.9 ]
      [ N.evidence ~id:"E" ~statement:"b" ~confidence:0.9 ]
  in
  check_raises_invalid "assumption id collides" (fun () ->
      N.validate dup_assumption)

(* Regression: validate used to scan a ref list with List.mem per node —
   O(n^2), minutes on a 10^5-node case.  The Hashtbl pass must stay
   linear, and the iterative fold must survive the 10^5-deep chain. *)
let test_validate_long_chain () =
  let n = 100_000 in
  let t = ref (N.evidence ~id:"n0" ~statement:"leaf" ~confidence:0.9) in
  for i = 1 to n - 1 do
    t := N.goal ~id:(Printf.sprintf "n%d" i) ~statement:"link" [ !t ]
  done;
  let t0 = Sys.time () in
  N.validate !t;
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check int) "chain size" n (N.size !t);
  Alcotest.(check int) "chain depth" n (N.depth !t);
  if elapsed > 2.0 then
    Alcotest.failf "validate took %.1fs on a %d-node chain (expected well \
                    under a second)" elapsed n

let test_render () =
  let r = N.render (sample_case ()) in
  List.iter
    (fun needle ->
      let found =
        let n = String.length needle in
        let rec scan i =
          if i + n > String.length r then false
          else if String.sub r i n = needle then true
          else scan (i + 1)
        in
        scan 0
      in
      check_true ("render mentions " ^ needle) found)
    [ "G1"; "E3"; "A1"; "ALL" ]

let suite =
  [ case "construction validation" test_construction_validation;
    case "structure queries" test_structure_queries;
    case "id uniqueness validation" test_validate;
    case "10^5-node chain validates fast" test_validate_long_chain;
    case "text rendering" test_render ]
