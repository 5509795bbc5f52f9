(* Building a quantified dependability case (paper Sections 1, 4.2).

   A two-leg safety case for a shutdown system: a statistical-testing leg
   and a proof-based leg, sharing the assumption that the operational
   profile is right.  We propagate confidence through the case structure
   under different dependence models, and cross-check the dependence story
   with an explicit Bayesian network.

   Run with: dune exec examples/assurance_case.exe *)

let case =
  Casekit.Node.goal ~id:"G0" ~statement:"Shutdown system pfd < 1e-3"
    ~combinator:Casekit.Node.Any
    ~assumptions:
      [ Casekit.Node.assumption ~id:"A0"
          ~statement:"Demand profile matches the hazard analysis"
          ~p_valid:0.97 ]
    [ Casekit.Node.goal ~id:"G1" ~statement:"Statistical-testing leg"
        [ Casekit.Node.evidence ~id:"E1"
            ~statement:"4600 failure-free statistically representative demands"
            ~confidence:0.99;
          Casekit.Node.evidence ~id:"E2"
            ~statement:"Test oracle validated against the specification"
            ~confidence:0.97 ];
      Casekit.Node.goal ~id:"G2" ~statement:"Analytical leg"
        [ Casekit.Node.evidence ~id:"E3"
            ~statement:"Mechanised proof of the shutdown logic"
            ~confidence:0.95;
          Casekit.Node.evidence ~id:"E4"
            ~statement:"Worst-case timing analysis within budget"
            ~confidence:0.98 ] ]

let () =
  print_endline "=== A two-leg assurance case, quantified ===\n";
  Casekit.Node.validate case;
  print_string (Casekit.Node.render case);
  Printf.printf "\n%d nodes, depth %d, %d evidence items\n\n"
    (Casekit.Node.size case) (Casekit.Node.depth case)
    (List.length (Casekit.Node.leaves case));

  (* Propagation under different joint-behaviour assumptions, on the
     flat evaluation graph. *)
  let module G = Casekit.Graph in
  let confidence dep node = G.propagate dep (G.of_node node) in
  let show name dep =
    Printf.printf "  %-28s %.5f\n" name (confidence dep case)
  in
  print_endline "Root-claim confidence:";
  show "independent supports" G.Independent;
  show "moderately dependent (0.5)" (G.Correlated 0.5);
  let lo = confidence G.Frechet_lower case
  and hi = confidence G.Frechet_upper case in
  Printf.printf "  %-28s [%.5f, %.5f]\n" "any dependence (Frechet)" lo hi;

  (* The two legs in the Littlewood-Wright view. *)
  let leg_doubt goal_id =
    match Casekit.Node.find case ~id:goal_id with
    | Some node -> 1.0 -. confidence G.Independent node
    | None -> assert false
  in
  let l1 =
    Casekit.Multileg.leg ~label:"testing leg" ~doubt:(leg_doubt "G1")
  in
  let l2 =
    Casekit.Multileg.leg ~label:"analytical leg" ~doubt:(leg_doubt "G2")
  in
  Printf.printf
    "\nLeg doubts: testing %.4f, analytical %.4f\nCombined doubt vs \
     dependence between the legs:\n"
    (leg_doubt "G1") (leg_doubt "G2");
  Array.iter
    (fun (rho, doubt) -> Printf.printf "  rho = %.1f -> doubt %.5f\n" rho doubt)
    (Casekit.Multileg.dependence_sweep l1 l2 ~n:5);

  (* What must a second leg achieve if the target doubt is 1e-3? *)
  (match Casekit.Multileg.required_second_leg ~dependence:0.3 l1 ~target_doubt:1e-3 with
  | Some x2 ->
    Printf.printf
      "\nTo reach doubt 1e-3 at dependence 0.3, the second leg must have \
       doubt <= %.4g\n"
      x2
  | None ->
    print_endline
      "\nAt dependence 0.3 no second leg can reach doubt 1e-3 — reduce the \
       shared\nassumption doubt first.");

  (* The same case as a Bayesian network, with the shared assumption as an
     explicit node. *)
  print_endline "\nBBN cross-check (shared operational-profile assumption):";
  let bn = Casekit.Bbn.create () in
  let profile =
    Casekit.Bbn.add_var bn ~name:"profile ok" ~states:[| "f"; "t" |]
      ~parents:[] ~cpt:[| 0.03; 0.97 |]
  in
  let leg name alpha =
    (* If the profile assumption fails, the leg's support collapses. *)
    Casekit.Bbn.add_var bn ~name ~states:[| "fails"; "holds" |]
      ~parents:[ profile ]
      ~cpt:[| 0.95; 0.05; 1.0 -. alpha; alpha |]
  in
  let testing = leg "testing leg" 0.9603 in
  let analytical = leg "analytical leg" 0.931 in
  let claim =
    Casekit.Bbn.add_var bn ~name:"claim" ~states:[| "unsupported"; "supported" |]
      ~parents:[ testing; analytical ]
      ~cpt:[| 1.0; 0.0; 0.0; 1.0; 0.0; 1.0; 0.0; 1.0 |]
  in
  Printf.printf "  P(claim supported)                    = %.5f\n"
    (Casekit.Bbn.prob bn ~evidence:[] claim 1);
  Printf.printf "  P(claim supported | profile is wrong) = %.5f\n"
    (Casekit.Bbn.prob bn ~evidence:[ (profile, 0) ] claim 1);
  Printf.printf "  P(analytical fails | testing failed)  = %.5f (vs %.5f \
                 unconditionally)\n"
    (Casekit.Bbn.prob bn ~evidence:[ (testing, 0) ] analytical 0)
    (Casekit.Bbn.prob bn ~evidence:[] analytical 0)
