(* Traced run of the end-to-end benchmark (see perfbench/README.md).
   Replays each user path in-process through the same public calls the
   program makes, with a span around every call into a layer.

     ctrace cmd (propagate|check|audit) FILE --spans OUT
     ctrace engine --case FILE --belief FILE --seed N --requests K --spans OUT [--toy]
     ctrace stream --confcase BIN --seed N --spans OUT [--toy]
     ctrace population --n N --seed N --spans OUT

   Each prints one JSON object on stdout and writes its full span log to
   OUT when it ends. *)

open Perfkit
module G = Casekit.Graph
module D = Analysis.Diagnostic
module E = Serve.Engine
module P = Serve.Protocol

let arg = Out.arg
let num = Out.num

let span_json (s : Span.t) =
  let parent =
    match List.find_opt (fun (p : Span.t) -> p.id = s.parent) (Span.spans ()) with
    | Some p -> Out.str p.name
    | None -> "null"
  in
  Out.obj
    [ ("name", Out.str s.name); ("parent", parent);
      ("dur_s", num (Span.duration_ns s *. 1e-9)); ("self_s", num (Span.self_ns s *. 1e-9));
      ("alloc_mw", num (s.alloc_w *. 1e-6)); ("minor", Out.int s.minor);
      ("major", Out.int s.major) ]

let median_us name =
  Stats.median (Array.of_list (List.map (fun s -> Span.self_ns s *. 1e-3) (Span.named name)))

let failed = ref 0
let attempted = ref 0

let account (r : Mix.request) resp =
  incr attempted;
  if not (r.check resp) then begin
    incr failed;
    Out.complain r resp
  end

let counts () = [ ("attempted", Out.int !attempted); ("failed", Out.int !failed) ]

(* --- the three CLI paths ----------------------------------------------------------- *)

(* The same read the CLI does. *)
let read path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let diag_json diags =
  Out.list (fun (d : D.t) -> Out.list Fun.id [ Out.str d.code; Out.int d.span.line ]) diags

let audit_options = { Analysis.Audit.default_options with target = Some 0.9 }

let cmd args =
  match args with
  | "propagate" :: path :: _ ->
    let text, node, g, root, lo, hi =
      Span.run "cli.propagate" (fun () ->
          let text = Span.run "read" (fun () -> read path) in
          let node = Span.run "case_format.parse" (fun () -> Casekit.Case_format.parse text) in
          let g = Span.run "graph.of_node" (fun () -> G.of_node node) in
          let prop dep = Span.run "graph.propagate" (fun () -> G.propagate dep g) in
          let root = prop G.Independent in
          let lo = prop G.Frechet_lower in
          let hi = prop G.Frechet_upper in
          ignore (prop G.Independent);
          (text, node, g, root, lo, hi))
    in
    (* Probes outside the command's span: layers the command reaches only
       inside another call, timed on their own. *)
    ignore (Span.run "case_format.parse_raw" (fun () -> Casekit.Case_format.parse_raw text));
    Span.run "node.validate" (fun () -> Casekit.Node.validate node);
    ignore (Span.run "audit.graph" (fun () ->
        Analysis.Audit.graph ~options:{ audit_options with structural = false } g));
    let six x = Out.str (Printf.sprintf "%.6f" x) in
    [ ("root", six root); ("lo", six lo); ("hi", six hi); ("nodes", Out.int (G.size g)) ]
  | "check" :: path :: _ ->
    let diags =
      Span.run "cli.check" (fun () ->
          let text = Span.run "read" (fun () -> read path) in
          let diags = Span.run "case_rules.check" (fun () -> Analysis.Case_rules.check text) in
          D.sort (D.with_file path diags))
    in
    [ ("diags", diag_json diags) ]
  | "audit" :: path :: _ ->
    let diags =
      Span.run "cli.audit" (fun () ->
          let text = Span.run "read" (fun () -> read path) in
          let diags = Span.run "audit.case" (fun () -> Analysis.Audit.case ~file:path ~options:audit_options text) in
          D.sort diags)
    in
    [ ("diags", diag_json diags) ]
  | _ -> failwith "cmd: expected propagate|check|audit FILE"

(* --- serve_query_hot, in-process ------------------------------------------------------ *)

let engine args =
  let toy = List.mem "--toy" args in
  let seed = int_of_string (arg "--seed" args) in
  let case_path = arg "--case" args and belief_path = arg "--belief" args in
  let requests = int_of_string (arg "--requests" args) in
  let model = Casegen.generate ~shape:(if toy then Casegen.toy else Casegen.full) ~seed () in
  Out_channel.with_open_bin belief_path (fun oc -> output_string oc (Mix.belief_text ~seed));
  let q = Mix.query ~model ~gen_fanout:(if toy then 3 else 10) ~named:(if toy then 40 else 2000) ~seed in
  let eng = E.create () in
  let handle (r : Mix.request) = account r (E.handle eng r.line) in
  Span.run "engine.setup" (fun () -> List.iter handle (Mix.query_setup q ~case_path ~belief_path ~seed));
  let traced (r : Mix.request) =
    Span.run ~gc:false "engine.request" (fun () ->
        let p = Span.run ~gc:false "engine.parse" (fun () -> E.parse eng r.line) in
        let resp = Span.run ~gc:false "engine.execute" (fun () -> E.execute eng p) in
        Span.rename (Span.last ())
          (match r.op with
          | Mix.Evaluate ->
            if Mix.contains resp "\"cached\":true" then "engine.execute.evaluate_hit"
            else "engine.execute.evaluate_miss"
          | op -> "engine.execute." ^ Mix.op_name op);
        account r resp)
  in
  (* The warm-up evaluates every key cold and memoised first: most of the
     run's memo misses happen there, so it is traced too. *)
  List.iter traced (Mix.query_warmup q);
  let h0 = E.hits eng and m0 = E.misses eng in
  for _ = 1 to requests do
    traced (Mix.query_next q)
  done;
  let hits = E.hits eng - h0 and misses = E.misses eng - m0 in
  [ ("parse_us", num (median_us "engine.parse"));
    ("evaluate_hit_us", num (median_us "engine.execute.evaluate_hit"));
    ("evaluate_miss_us", num (median_us "engine.execute.evaluate_miss"));
    ("edit_us", num (median_us "engine.execute.edit"));
    ("quantile_us", num (median_us "engine.execute.quantile"));
    ("hit_ratio", num (float_of_int hits /. float_of_int (max 1 (hits + misses))));
    ("entries", Out.int (E.memo_entries eng)) ]

(* --- serve_stream_bulk, in-process plus the daemon's transport ---------------------------- *)

let stream args =
  let toy = List.mem "--toy" args in
  let seed = int_of_string (arg "--seed" args) in
  let bin = arg "--confcase" args in
  let ingests, extras, trajectories = if toy then (5000, 1000, 2) else (50_000, 100_000, 3) in
  let eng = E.create () in
  let s = Mix.stream ~seed in
  List.iter (fun (r : Mix.request) -> account r (E.handle eng r.line)) (Mix.stream_setup s);
  for _ = 1 to ingests do
    let r = Mix.ingest s in
    ignore (Span.run ~gc:false "protocol.parse" (fun () -> P.parse r.line));
    let p = Span.run ~gc:false "engine.parse.ingest" (fun () -> E.parse eng r.line) in
    account r (Span.run ~gc:false "engine.execute.ingest" (fun () -> E.execute eng p))
  done;
  for _ = 1 to trajectories do
    let r = Mix.trajectory s ~extras in
    ignore (Span.run "protocol.parse.trajectory" (fun () -> P.parse r.line));
    let p = E.parse eng r.line in
    let resp = Span.run "engine.execute.trajectory" (fun () -> E.execute eng p) in
    account r resp;
    let v = P.parse resp in
    ignore (Span.run "protocol.print.trajectory" (fun () -> P.print v))
  done;
  (* The accumulator alone, per call, timed over batches of 1000 calls. *)
  let acc = Experience.Stream.demand_beta ~a:1.0 ~b:1.0 in
  let st = Random.State.make [| seed |] in
  let per_call =
    Array.init 200 (fun _ ->
        let d = Array.init 1000 (fun _ -> 1 + Random.State.int st 1000) in
        let t0 = Clock.now () in
        Array.iter (fun demands -> Experience.Stream.observe_demands acc ~demands ~failures:0) d;
        Clock.ns_since t0 /. 1000.0)
  in
  (* Transport: the same ingest bursts through a daemon; per-request wall
     time minus the in-process engine time is what the server's reading,
     batching and writing (and the pipe) add. *)
  let burst = if toy then 100 else 1000 in
  let d = Proc.spawn bin in
  let ds = Mix.stream ~seed:(seed + 1) in
  Proc.exchange d (Array.of_list (Mix.stream_setup ds)) ~on_response:(fun r l _ -> account r l);
  let per_request =
    Array.init 20 (fun _ ->
        let reqs = Array.init burst (fun _ -> Mix.ingest ds) in
        let t0 = Clock.now () in
        Proc.exchange d reqs ~on_response:(fun r l _ -> account r l);
        Clock.ns_since t0 *. 1e-3 /. float_of_int burst)
  in
  incr attempted;
  if not (Proc.stop d) then incr failed;
  let engine_us = median_us "engine.parse.ingest" +. median_us "engine.execute.ingest" in
  let ms name = median_us name *. 1e-3 in
  [ ("protocol_parse_us", num (median_us "protocol.parse"));
    ("execute_ingest_us", num (median_us "engine.execute.ingest"));
    ("observe_demands_ns", num (Stats.median per_call));
    ("parse_trajectory_ms", num (ms "protocol.parse.trajectory"));
    ("print_trajectory_ms", num (ms "protocol.print.trajectory"));
    ("execute_trajectory_ms", num (ms "engine.execute.trajectory"));
    ("transport_us", num (Stats.median per_request -. engine_us)) ]

(* --- population_4e6, in-process at 1 and 2 domains ------------------------------------------- *)

let population args =
  let n = int_of_string (arg "--n" args) in
  let seed = int_of_string (arg "--seed" args) in
  let config = { Elicit.Delphi.default_config with seed } in
  let run domains =
    let pool = Numerics.Parallel.create ~num_domains:domains () in
    let r =
      Fun.protect
        ~finally:(fun () -> Numerics.Parallel.shutdown pool)
        (fun () ->
          Span.run (Printf.sprintf "population.run.%dd" domains) (fun () ->
              Elicit.Population.run ~pool config ~n))
    in
    incr attempted;
    if r.Elicit.Population.n_doubters <> n / 4 then incr failed
  in
  run 1;
  run 2;
  let one = List.hd (Span.named "population.run.1d") in
  let two = List.hd (Span.named "population.run.2d") in
  [ ("run_1d_s", num (Span.duration_ns one *. 1e-9)); ("run_2d_s", num (Span.duration_ns two *. 1e-9));
    ("alloc_mw", num (one.alloc_w *. 1e-6)) ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  let result =
    match args with
    | "cmd" :: rest -> cmd rest
    | "engine" :: rest -> engine rest
    | "stream" :: rest -> stream rest
    | "population" :: rest -> population rest
    | _ ->
      prerr_endline "usage: ctrace (cmd|engine|stream|population) ...";
      exit 2
  in
  let spans = Span.spans () in
  (* Per-request spans are many; the summary lists only the coarse ones. *)
  let coarse = List.filter (fun (s : Span.t) -> s.gc) spans in
  Span.dump (arg "--spans" args);
  print_endline
    (Out.obj (result @ counts () @ [ ("spans", Out.list span_json coarse) ]))
