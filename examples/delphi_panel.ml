(* Running an expert panel (paper Section 3.3) and scoring its calibration.

   We simulate the paper's 12-expert four-phase protocol, pool the panel
   three different ways, and then — something the paper could not do with
   one experiment — score the synthetic experts' calibration against the
   ground truth over many repeated panels.

   Run with: dune exec examples/delphi_panel.exe *)

let () =
  print_endline "=== Expert panel: Delphi protocol and pooling ===\n";
  let config = Elicit.Delphi.default_config in
  let result = Elicit.Delphi.run config in
  print_string (Elicit.Delphi.summary_table result);

  let final = Elicit.Delphi.final result in
  let believers =
    List.filter
      (fun (e : Elicit.Delphi.expert) -> e.profile = Elicit.Delphi.Believer)
      final.experts
  in
  let beliefs = List.map Elicit.Delphi.belief_of believers in

  (* Three pooling rules on the final panel. *)
  print_endline "\nPooling the final believer panel three ways:";
  let mixtures = List.map Dist.Mixture.of_dist beliefs in
  let linear = Elicit.Pool.linear (Elicit.Pool.equal_weights mixtures) in
  Printf.printf "  linear pool:      P(SIL2+) = %.3f, mean = %.4g\n"
    (Dist.Mixture.prob_le linear 1e-2)
    (Dist.Mixture.mean linear);
  let log_pool = Elicit.Pool.logarithmic (Elicit.Pool.equal_weights beliefs) in
  Printf.printf "  logarithmic pool: P(SIL2+) = %.3f, mean = %.4g\n"
    (log_pool.Dist.cdf 1e-2) log_pool.Dist.mean;
  let vincent =
    Elicit.Pool.quantile_average (Elicit.Pool.equal_weights beliefs)
  in
  Printf.printf "  quantile average: P(SIL2+) = %.3f, mean = %.4g\n"
    (vincent.Dist.cdf 1e-2) vincent.Dist.mean;
  print_endline
    "  (the log pool is tighter: it rewards consensus; the linear pool \
     keeps\n  every expert's tail and is the conservative choice)";

  (* Calibration scoring across repeated panels. *)
  print_endline "\nCalibration of the panel across 200 replayed panels:";
  let predictions = ref [] in
  let pit_pairs = ref [] in
  for seed = 1 to 200 do
    let r = Elicit.Delphi.run { config with seed } in
    let f = Elicit.Delphi.final r in
    (* The panel forecasts "the system is SIL2 or better"; ground truth uses
       the scenario's true pfd. *)
    let outcome = config.true_pfd <= 1e-2 in
    predictions := (f.confidence_sil2, outcome) :: !predictions;
    List.iter
      (fun (e : Elicit.Delphi.expert) ->
        if e.profile = Elicit.Delphi.Believer then
          pit_pairs := (Elicit.Delphi.belief_of e, config.true_pfd) :: !pit_pairs)
      f.experts
  done;
  (* Brier score: mean squared error of the forecast probability against
     the 0/1 outcome; 0 is a perfect forecaster. *)
  let brier =
    List.fold_left
      (fun acc (p, outcome) ->
        let o = if outcome then 1.0 else 0.0 in
        acc +. ((p -. o) *. (p -. o)))
      0.0 !predictions
    /. float_of_int (List.length !predictions)
  in
  Printf.printf "  Brier score of the panel's SIL2 forecast: %.4f\n" brier;
  (* Probability integral transform: a calibrated expert's CDF evaluated
     at the truth is uniform on (0,1); the KS distance measures the
     defect. *)
  let pits =
    Array.of_list
      (List.map (fun ((d : Dist.t), truth) -> d.cdf truth) !pit_pairs)
  in
  let ks = (Numerics.Stat_tests.ks_uniform pits).statistic in
  Printf.printf
    "  KS calibration defect of individual experts: %.3f\n\
    \  (> 0 because the Delphi protocol pulls experts together: consensus \
     \n  improves the pool but leaves individuals overconfident)\n"
    ks
