(* Round-trip properties for the two text formats, plus the cross-subsystem
   invariant that the printers never emit documents the static analyser
   rejects: parse (print x) = x, and check (print x) has no errors. *)

open Helpers
module CF = Casekit.Case_format
module BF = Elicit.Belief_format
module N = Casekit.Node
module M = Dist.Mixture
module D = Analysis.Diagnostic

(* --- case documents -------------------------------------------------------- *)

(* Trees with multiple assumptions per goal and both combinators; ids are
   globally fresh by construction. *)
let gen_case_tree =
  let open QCheck2.Gen in
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  let conf = map (fun u -> 0.01 +. (0.98 *. u)) (float_bound_inclusive 1.0) in
  (* Statements carry the bytes the printer must escape: backslash,
     double quote and newline. *)
  let statement =
    map2
      (fun i tail -> Printf.sprintf "statement %d %s" i tail)
      (int_range 0 1000)
      (string_size ~gen:(oneofl [ 'a'; ' '; '\\'; '"'; '\n'; '\t'; '#' ])
         (int_range 0 6))
  in
  let leaf =
    map2
      (fun c s -> N.evidence ~id:(fresh "E") ~statement:s ~confidence:c)
      conf statement
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [ (1, leaf);
          ( 3,
            let* comb = oneofl [ N.All; N.Any ] in
            let* children = list_size (int_range 1 3) (tree (depth - 1)) in
            let* n_assumptions = int_range 0 2 in
            let* ps = list_size (pure n_assumptions) (pair conf statement) in
            let* s = statement in
            let assumptions =
              List.map
                (fun (p, s) -> N.assumption ~id:(fresh "A") ~statement:s ~p_valid:p)
                ps
            in
            pure
              (N.goal ~id:(fresh "G") ~statement:s ~combinator:comb
                 ~assumptions children) ) ]
  in
  tree 4

let test_case_roundtrip =
  qcheck ~count:200 "case_format: parse (print t) = t" gen_case_tree (fun t ->
      CF.parse (CF.print t) = t)

let test_case_print_is_clean =
  qcheck ~count:200 "case_format: print t never triggers analysis errors"
    gen_case_tree (fun t ->
      let text = CF.print t in
      (match CF.(load (scan text)) with
      | _ -> true
      | exception CF.Parse_error _ -> false)
      && D.errors (Analysis.Check.check_string Analysis.Check.Case text) = 0)

(* --- belief documents ------------------------------------------------------ *)

type comp_spec =
  | Atom of float
  | Logn of float * float
  | Gamma of float * float
  | Beta of float * float
  | Unif of float * float

let component_of_spec = function
  | Atom x -> M.Atom x
  | Logn (mu, sigma) -> M.Cont (Dist.Lognormal.make ~mu ~sigma)
  | Gamma (shape, rate) -> M.Cont (Dist.Gamma_d.make ~shape ~rate)
  | Beta (a, b) -> M.Cont (Dist.Beta_d.make ~a ~b)
  | Unif (lo, hi) -> M.Cont (Dist.Uniform_d.make ~lo ~hi)

let gen_belief =
  let open QCheck2.Gen in
  let range lo hi = map (fun u -> lo +. ((hi -. lo) *. u)) (float_bound_inclusive 1.0) in
  let spec =
    oneof
      [ map (fun x -> Atom x) (range 0.0 1.0);
        map2 (fun mu sigma -> Logn (mu, sigma)) (range (-9.0) (-3.0))
          (range 0.1 2.0);
        map2 (fun shape rate -> Gamma (shape, rate)) (range 0.5 5.0)
          (range 10.0 500.0);
        map2 (fun a b -> Beta (a, b)) (range 0.5 5.0) (range 1.0 30.0);
        map2 (fun lo w -> Unif (lo, lo +. w)) (range 0.0 0.4) (range 0.01 0.5)
      ]
  in
  let* specs = list_size (int_range 1 4) spec in
  let* raw_weights = list_size (pure (List.length specs)) (range 0.1 1.0) in
  let total = List.fold_left ( +. ) 0.0 raw_weights in
  let weights = List.map (fun w -> w /. total) raw_weights in
  pure (M.make (List.combine weights (List.map component_of_spec specs)))

(* print recovers continuous parameters from %g-rendered names (~6
   significant digits), so the round trip preserves the distribution to
   that precision rather than bit-exactly. *)
let close ?(eps = 1e-4) a b = abs_float (a -. b) <= eps *. max 1.0 (abs_float a)

let test_belief_roundtrip =
  qcheck ~count:200 "belief_format: parse (print b) preserves the belief"
    gen_belief (fun b ->
      let b2 = BF.parse (BF.print b) in
      List.length (M.components b2) = List.length (M.components b)
      && close (M.mean b) (M.mean b2)
      && List.for_all
           (fun x -> close (M.prob_le b x) (M.prob_le b2 x))
           [ 1e-4; 1e-3; 1e-2; 0.1; 0.5; 0.99 ])

let test_belief_print_is_clean =
  qcheck ~count:200 "belief_format: print b never triggers analysis errors"
    gen_belief (fun b ->
      let text = BF.print b in
      (match BF.parse text with
      | _ -> true
      | exception (BF.Parse_error _ | Invalid_argument _) -> false)
      && D.errors (Analysis.Check.check_string Analysis.Check.Belief text) = 0)

(* A generated graph names only its root; every other node is anonymous.
   Bridged to a tree and printed, it must parse back to a graph whose root
   propagates to the same bits. *)
let test_generated_graph_roundtrip () =
  let module G = Casekit.Graph in
  List.iter
    (fun (legs, fanout, depth) ->
      let g = Casekit.Generate.case ~legs ~fanout ~depth () in
      let text = CF.print (G.to_node g) in
      let g' =
        match CF.parse text with
        | node -> G.of_node node
        | exception CF.Parse_error e ->
          Alcotest.failf "printed case does not parse: line %d: %s" e.line
            e.message
      in
      Alcotest.(check int) "same size" (G.size g) (G.size g');
      List.iter
        (fun dep ->
          check_true "root propagates to the same bits"
            (Int64.equal
               (Int64.bits_of_float (G.propagate dep g))
               (Int64.bits_of_float (G.propagate dep g'))))
        [ G.Independent; G.Correlated 0.3; G.Frechet_lower; G.Frechet_upper ])
    [ (2, 2, 2); (3, 4, 3) ]

let suite =
  [ case "case_format: generated graph round-trips" test_generated_graph_roundtrip;
    test_case_roundtrip;
    test_case_print_is_clean;
    test_belief_roundtrip;
    test_belief_print_is_clean ]
