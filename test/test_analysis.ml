open Helpers
module D = Analysis.Diagnostic
module CR = Analysis.Case_rules
module BR = Analysis.Belief_rules
module Check = Analysis.Check

let codes ds = List.map (fun (d : D.t) -> d.code) ds

let has ?severity code ds =
  List.exists
    (fun (d : D.t) ->
      d.code = code
      && match severity with None -> true | Some s -> d.severity = s)
    ds

let assert_has ?severity code ds =
  if not (has ?severity code ds) then
    Alcotest.failf "expected %s in [%s]" code (String.concat "; " (codes ds))

let assert_not ?severity code ds =
  if has ?severity code ds then
    Alcotest.failf "unexpected %s in [%s]" code (String.concat "; " (codes ds))

let line_of code ds =
  match List.find_opt (fun (d : D.t) -> d.code = code) ds with
  | Some d -> d.span.line
  | None -> Alcotest.failf "no %s diagnostic" code

(* --- golden fixtures: one minimal trigger per case code ------------------- *)

let test_case_codes () =
  (* C000: lexical fault, and the empty document. *)
  assert_has ~severity:D.Error "C000" (CR.check "goal G \"unterminated");
  assert_has ~severity:D.Error "C000" (CR.check "");
  assert_has ~severity:D.Error "C000" (CR.check "# only a comment\n");
  (* C001: duplicate id, anchored at the second declaration. *)
  let dup =
    CR.check "goal G \"g\" all\n  evidence E \"a\" 0.9\n  evidence E \"b\" 0.9"
  in
  assert_has ~severity:D.Error "C001" dup;
  Alcotest.(check int) "C001 line" 3 (line_of "C001" dup);
  (* C002: out-of-range values, both kinds. *)
  assert_has ~severity:D.Error "C002"
    (CR.check "goal G \"g\" all\n  evidence E \"a\" 1.5");
  assert_has ~severity:D.Error "C002"
    (CR.check "goal G \"g\" all\n  assume A \"a\" 0\n  evidence E \"e\" 0.9");
  (* C003: certainty claimed. *)
  assert_has ~severity:D.Warning "C003"
    (CR.check "goal G \"g\" all\n  evidence E \"a\" 1.0");
  (* C004: unsupported goal. *)
  assert_has ~severity:D.Error "C004" (CR.check "goal G \"g\" all");
  (* C005: single child, both combinators. *)
  assert_has ~severity:D.Warning "C005"
    (CR.check "goal G \"g\" any\n  evidence E \"a\" 0.9");
  assert_has ~severity:D.Warning "C005"
    (CR.check "goal G \"g\" all\n  evidence E \"a\" 0.9");
  (* C006: dangling assumptions — top level and under evidence. *)
  assert_has ~severity:D.Error "C006" (CR.check "assume A \"a\" 0.5");
  assert_has ~severity:D.Error "C006"
    (CR.check
       "goal G \"g\" all\n  evidence E \"e\" 0.9\n    assume A \"a\" 0.5\n  \
        evidence E2 \"e2\" 0.9");
  (* C007: depth smell. *)
  let deep =
    let buf = Buffer.create 256 in
    for i = 0 to CR.max_depth do
      Buffer.add_string buf
        (Printf.sprintf "%sgoal G%d \"g\" all\n" (String.make (2 * i) ' ') i)
    done;
    Buffer.add_string buf
      (Printf.sprintf "%sevidence E \"e\" 0.9\n"
         (String.make (2 * (CR.max_depth + 1)) ' '));
    Buffer.contents buf
  in
  assert_has ~severity:D.Warning "C007" (CR.check deep);
  (* C008: fan-out smell. *)
  let wide =
    "goal G \"g\" all\n"
    ^ String.concat ""
        (List.init (CR.max_fan_out + 1) (fun i ->
             Printf.sprintf "  evidence E%d \"e%d\" 0.9\n" i i))
  in
  assert_has ~severity:D.Warning "C008" (CR.check wide);
  (* C009: shared evidence between `any` legs (matched by statement). *)
  assert_has ~severity:D.Warning "C009"
    (CR.check
       "goal G0 \"g\" any\n  goal G1 \"leg1\" all\n    evidence E1 \"proof \
        of x\" 0.9\n    evidence E2 \"other\" 0.9\n  goal G2 \"leg2\" all\n    \
        evidence E3 \"Proof of X\" 0.8\n    evidence E4 \"more\" 0.9");
  (* ...but the same evidence twice inside ONE leg is not a C009. *)
  assert_not "C009"
    (CR.check
       "goal G0 \"g\" any\n  goal G1 \"leg1\" all\n    evidence E1 \"proof\" \
        0.9\n    evidence E2 \"proof\" 0.9\n  goal G2 \"leg2\" all\n    \
        evidence E3 \"distinct\" 0.8\n    evidence E4 \"more\" 0.9");
  (* C010: indentation faults. *)
  assert_has ~severity:D.Error "C010"
    (CR.check "goal G \"g\" all\n    evidence E \"jump\" 0.9");
  assert_has ~severity:D.Error "C010" (CR.check "  goal G \"indented\" all");
  (* C011: several roots. *)
  assert_has ~severity:D.Error "C011"
    (CR.check "goal G \"g\" all\n  evidence E \"a\" 0.9\ngoal H \"h\" all");
  (* C012: evidence with children. *)
  assert_has ~severity:D.Error "C012"
    (CR.check "goal G \"g\" all\n  evidence E \"e\" 0.9\n    evidence E2 \
               \"child\" 0.9")

let test_clean_case_is_clean () =
  let diags =
    CR.check
      "goal G0 \"g\" any\n  assume A0 \"a\" 0.97\n  goal G1 \"l1\" all\n    \
       evidence E1 \"e1\" 0.99\n    evidence E2 \"e2\" 0.97\n  goal G2 \"l2\" \
       all\n    evidence E3 \"e3\" 0.95\n    evidence E4 \"e4\" 0.98\n"
  in
  Alcotest.(check (list string)) "no diagnostics" [] (codes diags)

(* --- golden fixtures: one minimal trigger per belief code ------------------ *)

let test_belief_codes () =
  (* B000: lexical fault and empty document. *)
  assert_has ~severity:D.Error "B000" (BR.check "wobble mu 1 sigma 2");
  assert_has ~severity:D.Error "B000" (BR.check "");
  (* B001: every flavour of broken weight bookkeeping. *)
  assert_has ~severity:D.Error "B001"
    (BR.check "atom 0 0.4\natom 1 weight 0.4");
  assert_has ~severity:D.Error "B001" (BR.check "atom 0\natom 1");
  assert_has ~severity:D.Error "B001" (BR.check "atom 0 1.0\nbeta a 2 b 2");
  assert_has ~severity:D.Error "B001"
    (BR.check "atom 0 weight 2\natom 1 weight -1");
  (* B002: atom outside the unit interval. *)
  assert_has ~severity:D.Error "B002" (BR.check "atom 1.5");
  assert_has ~severity:D.Error "B002" (BR.check "atom -0.25");
  (* B003: degenerate sigma — error at <= 0, warning below the spike floor. *)
  assert_has ~severity:D.Error "B003" (BR.check "lognormal mode 1e-3 sigma -1");
  assert_has ~severity:D.Warning "B003"
    (BR.check "lognormal mode 1e-3 sigma 0.01");
  (* B005: malformed components. *)
  assert_has ~severity:D.Error "B005" (BR.check "lognormal mode 1e-3");
  assert_has ~severity:D.Error "B005"
    (BR.check "lognormal mode 1e-3 mu -5 sigma 0.5");
  assert_has ~severity:D.Error "B005" (BR.check "gamma shape 0 rate 1");
  assert_has ~severity:D.Error "B005" (BR.check "uniform lo 0.5 hi 0.1");
  (* B006: uniform support leaking out of [0,1]. *)
  assert_has ~severity:D.Warning "B006" (BR.check "uniform lo 0 hi 2");
  (* B007: fields the parser silently ignores. *)
  assert_has ~severity:D.Warning "B007"
    (BR.check "lognormal mode 1e-3 sigma 0.9 bogus 7");
  assert_has ~severity:D.Warning "B007"
    (BR.check "gamma shape 2 shape 3 rate 100")

(* The paper-grounded rule gets its own cases: warning when the mean's SIL
   band is worse than the mode's, info when the mixture's overall mean is
   pulled back (perfection mass), silent when nothing migrates. *)
let test_band_migration () =
  let migrated = BR.check "lognormal mode 3e-3 sigma 1.3" in
  assert_has ~severity:D.Warning "B004" migrated;
  (match List.find_opt (fun (d : D.t) -> d.code = "B004") migrated with
  | Some d ->
    check_true "names the mode band"
      (Helpers.contains_substring d.message "SIL2");
    check_true "names the computed mean band"
      (Helpers.contains_substring d.message "SIL1")
  | None -> Alcotest.fail "no B004");
  (* Same judgement through the mu parameterisation migrates identically:
     mode = exp(mu - sigma^2). *)
  let mu = log 3e-3 +. (1.3 *. 1.3) in
  assert_has ~severity:D.Warning "B004"
    (BR.check (Printf.sprintf "lognormal mu %.17g sigma 1.3" mu));
  (* Perfection mass pulls the mixture mean back into the mode's band:
     downgraded to info, so --strict stays green (sis.belief's shape). *)
  assert_has ~severity:D.Info "B004"
    (BR.check "atom 0 0.05\nlognormal mode 3e-3 sigma 0.9 weight 0.95");
  (* A tight judgement does not migrate at this mode. *)
  assert_not "B004" (BR.check "lognormal mode 3e-3 sigma 0.5")

(* --- acceptance behaviours ------------------------------------------------- *)

let test_exit_codes () =
  let dup =
    Check.check_string Check.Case
      "goal G \"g\" all\n  evidence E \"a\" 0.9\n  evidence E \"b\" 0.9"
  in
  Alcotest.(check int) "duplicate id exits 2" 2 (D.exit_code dup);
  Alcotest.(check int) "duplicate id exits 2 under strict" 2
    (D.exit_code ~strict:true dup);
  let warn = Check.check_string Check.Belief "lognormal mode 3e-3 sigma 1.3" in
  Alcotest.(check int) "warnings exit 0 by default" 0 (D.exit_code warn);
  Alcotest.(check int) "warnings exit 1 under strict" 1
    (D.exit_code ~strict:true warn);
  let info =
    Check.check_string Check.Belief
      "atom 0 0.05\nlognormal mode 3e-3 sigma 0.9 weight 0.95"
  in
  Alcotest.(check int) "infos never affect the exit" 0
    (D.exit_code ~strict:true info)

let read_path path =
  if Sys.file_exists path then path
  else Filename.concat ".." path |> fun up ->
    if Sys.file_exists up then up else path

let read_file path =
  let path = read_path path in
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The CLI side of the contract: every subcommand that reads a case file
   exits 2 on a malformed one, [propagate] and [case] included (cmdliner
   would exit 124, its usage-error code). *)
let test_cli_malformed_case_exits_2 () =
  let exe = Filename.concat ".." (Filename.concat "bin" "confcase.exe") in
  let file = read_path "examples/bad_shutdown.case" in
  List.iter
    (fun sub ->
      let code =
        Sys.command
          (Filename.quote_command exe ~stdout:Filename.null
             ~stderr:Filename.null [ sub; file ])
      in
      Alcotest.(check int) (sub ^ " exits 2") 2 code)
    [ "check"; "propagate"; "case" ]

(* One input-error contract: a malformed case or belief file is reported
   as [path:line:col: message] and exits 2, whichever subcommand read it;
   so is a file that cannot be read at all (a directory, a missing path):
   [confcase: path: reason] on stderr, or an F000 diagnostic from the
   multi-file [check] and [audit].  A [stream --resume] snapshot that is
   missing, a directory or truncated is an input error too. *)
let test_cli_input_errors () =
  let exe = Filename.concat ".." (Filename.concat "bin" "confcase.exe") in
  let case = read_path "examples/bad_shutdown.case" in
  let good_case = read_path "examples/shutdown.case" in
  let belief = read_path "examples/bad_sis.belief" in
  let out = Filename.temp_file "confcase" ".out" in
  let dir = Filename.temp_file "confcase" ".dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let missing = Filename.concat dir "missing.case" in
  let truncated = Filename.concat dir "truncated.snap" in
  Numerics.Columns.save truncated
    [ ("x", Numerics.Columns.of_array [| 1.0; 2.0 |]) ];
  let snapshot = read_file truncated in
  Out_channel.with_open_bin truncated (fun oc ->
      output_string oc (String.sub snapshot 0 30));
  let unreadable path =
    [ ([ "case"; path ], "confcase: " ^ path ^ ": ");
      ([ "propagate"; path ], "confcase: " ^ path ^ ": ");
      ([ "judge"; "--belief-file"; path ], "confcase: " ^ path ^ ": ");
      ([ "stream"; "--belief-file"; path; "--events"; "1" ],
        "confcase: " ^ path ^ ": ");
      ([ "stream"; "--resume"; path; "--events"; "1" ],
        "confcase: " ^ path ^ ": ");
      ([ "audit"; good_case; "--belief"; path ], "confcase: " ^ path ^ ": ");
      ([ "audit"; path ], path ^ ":error[F000]: " ^ path ^ ": ");
      ([ "check"; path ], path ^ ":error[F000]: " ^ path ^ ": ") ]
  in
  List.iter
    (fun (args, where) ->
      let code =
        Sys.command
          (Filename.quote_command exe ~stdout:out ~stderr:out args)
      in
      let what = String.concat " " args in
      Alcotest.(check int) (what ^ " exits 2") 2 code;
      check_true (what ^ " reports " ^ where)
        (Helpers.contains_substring (read_file out) where))
    ([ ([ "propagate"; case ], case ^ ":11:14: duplicate id E1");
       ([ "case"; case ], case ^ ":11:14: duplicate id E1");
       ([ "judge"; "--belief-file"; belief ], belief ^ ":8:1: ");
       ([ "stream"; "--belief-file"; belief; "--events"; "1" ], belief ^ ":8:1: ");
       ([ "stream"; "--resume"; truncated; "--events"; "1" ],
         "confcase: " ^ truncated ^ ": truncated header") ]
    @ List.map
        (fun (args, where) -> (args, where ^ "Is a directory"))
        (unreadable dir)
    @ List.map
        (fun (args, where) -> (args, where ^ "No such file or directory"))
        (unreadable missing));
  Sys.remove out;
  Sys.remove truncated;
  Sys.rmdir dir

(* Golden: [confcase case --sensitivities] on the shipped two-leg case —
   the rendered tree, the 5-decimal root, the Frechet bounds and both
   rankings, sorted by influence.  A rho outside [0,1] is rejected before
   anything is printed. *)
let test_cli_case_golden () =
  let exe = Filename.concat ".." (Filename.concat "bin" "confcase.exe") in
  let out = Filename.temp_file "confcase" ".out" in
  let code =
    Sys.command
      (Filename.quote_command exe ~stdout:out
         [ "case"; read_path "examples/shutdown.case"; "--sensitivities" ])
  in
  Alcotest.(check int) "case exits 0" 0 code;
  Alcotest.(check string) "case stdout"
    {|[G] G0: Shutdown system pfd < 1e-3 (ANY of 2)
  [A] A0: Demand profile matches the hazard analysis (valid with p=0.97)
  [G] G1: Statistical-testing leg (ALL of 2)
    [E] E1: 4600 failure-free statistically representative demands (confidence 0.99)
    [E] E2: Test oracle validated against the specification (confidence 0.97)
  [G] G2: Analytical leg (ALL of 2)
    [E] E3: Mechanised proof of the shutdown logic (confidence 0.95)
    [E] E4: Worst-case timing analysis within budget (confidence 0.98)

Root confidence: 0.96734
Under any dependence: [0.93120, 0.97000]

Evidence sensitivities (d root / d leaf):
  E2           0.0663
  E1           0.0649
  E3           0.0377
  E4           0.0366
Assumption sensitivities:
  A0           0.9973
|}
    (read_file out);
  let code =
    Sys.command
      (Filename.quote_command exe ~stdout:Filename.null ~stderr:Filename.null
         [ "case"; read_path "examples/shutdown.case"; "--dependence"; "1.5" ])
  in
  Alcotest.(check int) "rho outside [0,1] is a usage error" 124 code;
  Sys.remove out

(* Whether the strict loaders accept a document. *)
let case_loads text =
  match Casekit.Case_format.(load (scan text)) with
  | _ -> true
  | exception Casekit.Case_format.Parse_error _ -> false

let belief_parses text =
  match Elicit.Belief_format.parse text with
  | _ -> true
  | exception (Elicit.Belief_format.Parse_error _ | Invalid_argument _) -> false

let test_shipped_fixtures () =
  (* Good fixtures are --strict-clean (sis.belief's migration is an info). *)
  let good_case = read_file "examples/shutdown.case" in
  check_true "shutdown.case parses" (case_loads good_case);
  Alcotest.(check int) "shutdown.case strict-clean" 0
    (D.exit_code ~strict:true (Check.check_string Check.Case good_case));
  let good_belief = read_file "examples/sis.belief" in
  let good_belief_diags = Check.check_string Check.Belief good_belief in
  check_true "sis.belief parses" (belief_parses good_belief);
  assert_has ~severity:D.Info "B004" good_belief_diags;
  Alcotest.(check int) "sis.belief strict-clean" 0
    (D.exit_code ~strict:true good_belief_diags);
  (* Bad fixtures trigger the documented codes and exit 2. *)
  let bad_case = read_file "examples/bad_shutdown.case" in
  let bad_case_diags = Check.check_string Check.Case bad_case in
  List.iter
    (fun c -> assert_has c bad_case_diags)
    [ "C001"; "C002"; "C003"; "C009" ];
  Alcotest.(check int) "bad_shutdown.case exits 2" 2
    (D.exit_code bad_case_diags);
  check_true "bad_shutdown.case is rejected by the strict parser"
    (not (case_loads bad_case));
  let bad_belief_diags =
    Check.check_string Check.Belief (read_file "examples/bad_sis.belief")
  in
  List.iter
    (fun c -> assert_has c bad_belief_diags)
    [ "B001"; "B002"; "B004" ];
  assert_has ~severity:D.Warning "B004" bad_belief_diags;
  Alcotest.(check int) "bad_sis.belief exits 2" 2
    (D.exit_code bad_belief_diags)

(* Golden: the C009 warning on bad_shutdown.case carries the computed
   overlap fraction — one shared evidence statement out of three distinct
   under `any` goal G0, i.e. exactly 1/3 — in its data field and in the
   JSON report.  This is the same shared/distinct quotient
   Graph.overlap_fraction derives from DAG structure (pinned to 1/3 on
   the same shape in test_graph.ml), so the static warning and the
   propagation-time correlation floor agree on one number. *)
let test_c009_overlap_fraction () =
  let diags =
    Check.check_string Check.Case (read_file "examples/bad_shutdown.case")
  in
  let c009 =
    match List.find_opt (fun (d : D.t) -> d.code = "C009") diags with
    | Some d -> d
    | None -> Alcotest.fail "expected a C009 diagnostic"
  in
  (match List.assoc_opt "overlap_fraction" c009.data with
  | Some f -> check_close ~eps:1e-12 "overlap fraction is 1/3" (1.0 /. 3.0) f
  | None -> Alcotest.fail "C009 carries no overlap_fraction");
  check_true "message states the shared percentage"
    (Helpers.contains_substring c009.message
       "33% of this goal's evidence is shared");
  let json =
    D.json_of_report [ ("examples/bad_shutdown.case", diags) ]
  in
  check_true "json carries the overlap fraction"
    (Helpers.contains_substring json "\"overlap_fraction\":0.333333")

let test_check_api () =
  (* A clean document loads and yields no diagnostics. *)
  let clean = "goal G \"g\" all\n  evidence E \"a\" 0.9\n  evidence E2 \"b\" 0.9" in
  (match Casekit.Case_format.(load (scan clean)) with
  | g, _ ->
    Alcotest.(check string) "root id" "G"
      (Casekit.Graph.id_of g (Casekit.Graph.root g))
  | exception Casekit.Case_format.Parse_error _ ->
    Alcotest.fail "expected a parsed case");
  Alcotest.(check (list string)) "no diagnostics" []
    (codes (Check.check_string Check.Case clean));
  (* A broken document yields every defect, not just the first. *)
  let broken =
    "goal G \"g\" all\n  evidence E \"a\" 1.5\n  evidence E \"b\" 0.9"
  in
  check_true "no value" (not (case_loads broken));
  let diags = Check.check_string Check.Case broken in
  assert_has "C001" diags;
  assert_has "C002" diags;
  (* File driver: unreadable files become F000 instead of an exception. *)
  assert_has ~severity:D.Error "F000"
    (Check.check_file "does_not_exist.case")

let test_kind_detection () =
  check_true "case extension" (Check.kind_of_path "x.case" = Some Check.Case);
  check_true "belief extension"
    (Check.kind_of_path "x.belief" = Some Check.Belief);
  check_true "unknown extension" (Check.kind_of_path "x.txt" = None);
  check_true "sniffs a case"
    (Check.sniff "# c\n\ngoal G \"g\" all\n" = Check.Case);
  check_true "sniffs a belief" (Check.sniff "atom 0 0.5\n" = Check.Belief)

let test_json_and_rendering () =
  let ds =
    Check.check_string ~file:"f.belief" Check.Belief
      "lognormal mode 3e-3 sigma 1.3"
  in
  let json = D.json_of_report [ ("f.belief", ds) ] in
  check_true "json has code" (Helpers.contains_substring json "\"B004\"");
  check_true "json has totals" (Helpers.contains_substring json "\"warnings\":1");
  (match ds with
  | [ d ] ->
    check_true "rendering carries file:line:col"
      (Helpers.contains_substring (D.to_string d) "f.belief:1:1: warning[B004]")
  | _ -> Alcotest.fail "expected exactly one diagnostic");
  (* Escaping: statements can contain anything. *)
  let quoted =
    Check.check_string Check.Belief "atom 1.5 weight \"oops\""
  in
  check_true "json of weird tokens parses shape"
    (String.length (D.json_of_report [ ("x", quoted) ]) > 0)

(* Every diagnostic object must carry its own source path — a flattened
   multi-file report stays attributable without the per-file grouping. *)
let test_json_file_member () =
  let d =
    D.make ~file:"examples/x.case" ~code:"C013" ~severity:D.Error ~line:3
      ~data:[ ("target", 0.9) ]
      "unattainable"
  in
  check_true "to_json carries the source path"
    (Helpers.contains_substring (D.to_json d)
       {|"file":"examples/x.case"|});
  check_true "and the data payload"
    (Helpers.contains_substring (D.to_json d) {|"target":0.9|});
  let anon = D.make ~code:"C013" ~severity:D.Error ~line:3 "unattainable" in
  check_true "no file member without a path"
    (not (Helpers.contains_substring (D.to_json anon) {|"file"|}))

(* The comparator is total: diagnostics differing only in message or in
   data payload still order deterministically, whatever the emission
   order was. *)
let test_sort_total_order () =
  let mk ?(code = "C014") ?(data = []) message =
    D.make ~file:"f.case" ~code ~severity:D.Warning ~line:4 ~col:3 ~data
      message
  in
  let a = mk "leg x is vacuous" in
  let b = mk "leg y is vacuous" in
  let c = mk ~data:[ ("goal_index", 1.0) ] "leg y is vacuous" in
  let d = mk ~data:[ ("goal_index", 2.0) ] "leg y is vacuous" in
  let golden = [ a; b; c; d ] in
  let golden_str = String.concat "|" (List.map D.to_string golden) in
  List.iter
    (fun perm ->
      Alcotest.(check string) "every emission order sorts identically"
        golden_str
        (String.concat "|" (List.map D.to_string (D.sort perm))))
    [ [ d; c; b; a ]; [ b; d; a; c ]; [ c; a; d; b ] ];
  (* Message before data, data keys before bit-compared values. *)
  check_true "message orders before payload" (D.compare a b < 0);
  check_true "shorter payload first" (D.compare b c < 0);
  check_true "payload values compared by bits" (D.compare c d < 0);
  check_true "never equal unless identical" (D.compare c d <> 0)

let test_parse_error_positions () =
  (* The enriched Parse_error carries column and offending token. *)
  (match Casekit.Case_format.parse "goal G \"g\" maybe" with
  | exception Casekit.Case_format.Parse_error e ->
    Alcotest.(check int) "line" 1 e.line;
    Alcotest.(check int) "col" 12 e.col;
    Alcotest.(check string) "token" "maybe" e.token
  | _ -> Alcotest.fail "expected Parse_error");
  (match Elicit.Belief_format.parse "atom 0 0.5\natom 1 weight x" with
  | exception Elicit.Belief_format.Parse_error e ->
    Alcotest.(check int) "line" 2 e.line;
    Alcotest.(check string) "token" "x" e.token;
    check_true "message names the token"
      (Helpers.contains_substring e.message "\"x\"")
  | _ -> Alcotest.fail "expected Parse_error");
  (* Duplicate ids are now a positioned Parse_error, not Invalid_argument. *)
  match
    Casekit.Case_format.parse
      "goal G \"g\" all\n  evidence E \"a\" 0.9\n  evidence E \"b\" 0.9"
  with
  | exception Casekit.Case_format.Parse_error e ->
    Alcotest.(check int) "dup line" 3 e.line;
    check_true "dup message names first site"
      (Helpers.contains_substring e.message "line 2")
  | _ -> Alcotest.fail "expected Parse_error"

let suite =
  [ case "every case code has a golden trigger" test_case_codes;
    case "clean case yields no diagnostics" test_clean_case_is_clean;
    case "every belief code has a golden trigger" test_belief_codes;
    case "band migration (0.651 sigma^2)" test_band_migration;
    case "exit-code contract" test_exit_codes;
    case "CLI exits 2 on a malformed case" test_cli_malformed_case_exits_2;
    case "CLI input errors are path:line:col, exit 2" test_cli_input_errors;
    case "CLI case stdout golden" test_cli_case_golden;
    case "shipped fixtures" test_shipped_fixtures;
    case "C009 overlap fraction golden" test_c009_overlap_fraction;
    case "parse + check API" test_check_api;
    case "kind detection" test_kind_detection;
    case "json and rendering" test_json_and_rendering;
    case "json diagnostics carry their file" test_json_file_member;
    case "diagnostic sort is a total order" test_sort_total_order;
    case "parse errors carry column and token" test_parse_error_positions ]
