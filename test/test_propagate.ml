open Helpers
module G = Casekit.Graph
module N = Casekit.Node

(* One goal over evidence leaves with the given confidences. *)
let goal_over ?(combinator = N.All) cs =
  let b = G.Builder.create () in
  let kids =
    Array.of_list
      (List.map (fun c -> G.Builder.evidence b ~confidence:c ()) cs)
  in
  G.Builder.build b ~root:(G.Builder.goal b ~combinator kids)

let and_combine dep cs = G.propagate dep (goal_over cs)
let or_combine dep cs = G.propagate dep (goal_over ~combinator:N.Any cs)

let test_and_combinators () =
  let cs = [ 0.9; 0.8 ] in
  check_close ~eps:1e-12 "independent" 0.72 (and_combine G.Independent cs);
  check_close ~eps:1e-12 "frechet lower" 0.7 (and_combine G.Frechet_lower cs);
  check_close ~eps:1e-12 "frechet upper (comonotone)" 0.8
    (and_combine G.Frechet_upper cs);
  check_close ~eps:1e-12 "correlated 0 = independent" 0.72
    (and_combine (G.Correlated 0.0) cs);
  check_close ~eps:1e-12 "correlated 1 = comonotone" 0.8
    (and_combine (G.Correlated 1.0) cs);
  check_close ~eps:1e-12 "correlated 0.5 blends" 0.76
    (and_combine (G.Correlated 0.5) cs);
  (* Deep lower bound clips at 0. *)
  check_close "lower clipped" 0.0
    (and_combine G.Frechet_lower [ 0.5; 0.5; 0.5 ])

let test_or_combinators () =
  let cs = [ 0.3; 0.4 ] in
  check_close ~eps:1e-12 "independent" (1.0 -. (0.7 *. 0.6))
    (or_combine G.Independent cs);
  check_close ~eps:1e-12 "frechet lower (max)" 0.4
    (or_combine G.Frechet_lower cs);
  check_close ~eps:1e-12 "frechet upper (sum)" 0.7
    (or_combine G.Frechet_upper cs);
  check_close "upper clipped at 1" 1.0
    (or_combine G.Frechet_upper [ 0.8; 0.9 ])

let test_validation () =
  check_raises_invalid "confidence above 1" (fun () ->
      ignore (and_combine G.Independent [ 1.5 ]));
  check_raises_invalid "rho out of range" (fun () ->
      ignore (and_combine (G.Correlated 1.5) [ 0.5 ]))

let case_tree () =
  G.of_node
    (N.goal ~id:"G" ~statement:"claim"
       ~assumptions:[ N.assumption ~id:"A" ~statement:"env" ~p_valid:0.95 ]
       [ N.evidence ~id:"E1" ~statement:"test" ~confidence:0.9;
         N.evidence ~id:"E2" ~statement:"analysis" ~confidence:0.8 ])

let test_tree_confidence () =
  let t = case_tree () in
  let ind = G.propagate G.Independent t in
  check_close ~eps:1e-12 "independent AND with assumption"
    (0.9 *. 0.8 *. 0.95) ind;
  let lo = G.propagate G.Frechet_lower t and hi = G.propagate G.Frechet_upper t in
  check_close ~eps:1e-12 "lower" (0.7 *. 0.95) lo;
  check_close ~eps:1e-12 "upper" (0.8 *. 0.95) hi;
  check_true "independent within bounds" (lo <= ind && ind <= hi)

let test_or_tree () =
  let t =
    G.of_node
      (N.goal ~id:"G" ~statement:"claim" ~combinator:N.Any
         [ N.evidence ~id:"L1" ~statement:"leg 1" ~confidence:0.9;
           N.evidence ~id:"L2" ~statement:"leg 2" ~confidence:0.8 ])
  in
  check_close ~eps:1e-12 "two legs independent" 0.98
    (G.propagate G.Independent t);
  check_close ~eps:1e-12 "two legs fully dependent" 0.9
    (G.propagate (G.Correlated 1.0) t)

let test_sensitivity () =
  let t = case_tree () in
  let s =
    Array.map (fun rho -> G.propagate (G.Correlated rho) t) [| 0.0; 0.5; 1.0 |]
  in
  Alcotest.(check int) "points" 3 (Array.length s);
  (* For AND of positively dependent supports, higher rho helps. *)
  check_true "monotone in rho" (s.(0) <= s.(1) && s.(1) <= s.(2))

let test_frechet_envelope_property =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 2 5)
           (map (fun u -> 0.05 +. (0.9 *. u)) (float_bound_inclusive 1.0)))
        (float_bound_inclusive 1.0))
  in
  qcheck "correlated AND lies inside the Frechet envelope" gen
    (fun (cs, rho) ->
      let v = and_combine (G.Correlated rho) cs in
      and_combine G.Frechet_lower cs -. 1e-12 <= v
      && v <= and_combine G.Frechet_upper cs +. 1e-12)

let test_what_if () =
  let t = case_tree () in
  let e1 = Option.get (G.find t "E1") in
  ignore (G.propagate G.Independent t);
  G.set_evidence t e1 0.99;
  check_close ~eps:1e-12 "updated confidence"
    (0.99 *. 0.8 *. 0.95)
    (G.refresh G.Independent t);
  (* Setting it back restores the original value. *)
  G.set_evidence t e1 0.9;
  check_close ~eps:1e-12 "original restored"
    (0.9 *. 0.8 *. 0.95)
    (G.refresh G.Independent t);
  check_true "missing id" (G.find t "missing" = None);
  check_raises_invalid "a goal is not evidence" (fun () ->
      G.set_evidence t (G.root t) 0.5)

let test_leaf_sensitivities () =
  let t = case_tree () in
  let sens = G.leaf_sensitivities G.Independent t in
  Alcotest.(check int) "one entry per leaf" 2 (List.length sens);
  (* For an independent AND, d(root)/d(E1) = conf(E2) * assumption factor. *)
  check_close ~eps:1e-6 "E1 sensitivity" (0.8 *. 0.95)
    (List.assoc "E1" sens);
  check_close ~eps:1e-6 "E2 sensitivity" (0.9 *. 0.95)
    (List.assoc "E2" sens);
  (* In an OR of strong legs, each leg's sensitivity is small. *)
  let or_sens =
    G.leaf_sensitivities G.Independent (goal_over ~combinator:N.Any [ 0.99; 0.99 ])
  in
  List.iter
    (fun (_, s) -> check_in_range "redundant legs matter little" ~lo:0.0 ~hi:0.02 s)
    or_sens

let test_assumption_sensitivities () =
  let t = case_tree () in
  let sens = G.assumption_sensitivities G.Independent t in
  Alcotest.(check int) "one entry" 1 (List.length sens);
  (* d(root)/d(p_valid) = AND of children = 0.72. *)
  check_close ~eps:1e-6 "assumption sensitivity" 0.72 (List.assoc "A" sens);
  check_close ~eps:1e-12 "inputs restored" (0.9 *. 0.8 *. 0.95)
    (G.propagate G.Independent t)

let suite =
  [ case "AND combinators" test_and_combinators;
    case "what-if edits" test_what_if;
    case "leaf sensitivities" test_leaf_sensitivities;
    case "assumption sensitivities" test_assumption_sensitivities;
    case "OR combinators" test_or_combinators;
    case "input validation" test_validation;
    case "tree confidence with assumptions" test_tree_confidence;
    case "alternative legs (OR) tree" test_or_tree;
    case "dependence sensitivity" test_sensitivity;
    test_frechet_envelope_property ]
