(* Load generator for the end-to-end benchmark (see perfbench/README.md).

     cbench write-case --seed N --out FILE [--toy]
     cbench query --confcase BIN --case FILE --belief FILE --seed N
                  --seconds S --setups K [--toy] [--corrupt]
     cbench stream --confcase BIN --seed N --seconds S --setups K [--toy] [--corrupt]

   Each prints one JSON object on stdout.  Every response is checked
   against a known answer; wrong or failed responses are counted, never
   dropped. *)

open Perfkit

let pairs l = Out.list (fun (c, line) -> Out.list Fun.id [ Out.str c; Out.int line ]) l

(* --- write-case -------------------------------------------------------------------- *)

let write_case args =
  let shape = if List.mem "--toy" args then Casegen.toy else Casegen.full in
  let seed = int_of_string (Out.arg "--seed" args) in
  let m = Casegen.generate ~shape ~out:(Out.arg "--out" args) ~seed () in
  let root dep = Out.str (Printf.sprintf "%.6f" (Casegen.values m dep).(0)) in
  print_endline
    (Out.obj
       [ ("nodes", Out.int m.n); ("lines", Out.int m.lines);
         ("root", root Casegen.Independent);
         ("lo", root Casegen.Frechet_lower);
         ("hi", root Casegen.Frechet_upper);
         ("check", pairs m.planted);
         ("audit", pairs (Casegen.expected_audit m)) ])

(* --- shared accounting -------------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  all : Stats.samples;  (* timed latencies, us *)
  by_op : (Mix.op, Stats.samples) Hashtbl.t;
  mutable mark : int;  (* first latency of the open window *)
  block_s : Stats.samples;  (* wall time of each block of work *)
  window_p50 : Stats.samples;
  window_p99 : Stats.samples;
}

let tally () =
  { attempted = 0; failed = 0; all = Stats.create (); by_op = Hashtbl.create 8; mark = 0;
    block_s = Stats.create (); window_p50 = Stats.create (); window_p99 = Stats.create () }

(* Close a window of timed requests with its own latency percentiles.  The
   reported percentiles are medians over windows, so a stall moves one
   window's p99, not the whole run's. *)
let close_window t =
  let lat = Array.sub t.all.data t.mark (t.all.len - t.mark) in
  t.mark <- t.all.len;
  Stats.push t.window_p50 (Stats.quantile lat 0.5);
  Stats.push t.window_p99 (Stats.quantile lat 0.99)

let account t ~timed (r : Mix.request) line ns =
  t.attempted <- t.attempted + 1;
  if not (r.check line) then begin
    t.failed <- t.failed + 1;
    Out.complain r line
  end;
  if timed then begin
    let us = ns /. 1e3 in
    Stats.push t.all us;
    let s =
      match Hashtbl.find_opt t.by_op r.op with
      | Some s -> s
      | None ->
        let s = Stats.create () in
        Hashtbl.add t.by_op r.op s;
        s
    in
    Stats.push s us
  end

let op_quantile t op p =
  match Hashtbl.find_opt t.by_op op with
  | Some s -> Stats.quantile (Stats.to_array s) p
  | None -> nan

(* Spawn a daemon and run the set-up requests; the set-up time runs from
   spawn until the last acknowledgement is read. *)
let set_up bin t reqs =
  let d = Proc.spawn bin in
  Proc.exchange d (Array.of_list reqs) ~on_response:(account t ~timed:false);
  (d, Clock.s_since d.spawned)

let set_ups bin t ~count make =
  let times = ref [] in
  let rec go k =
    let d, s = set_up bin t (make ()) in
    times := s :: !times;
    if k < count then begin
      if not (Proc.stop d) then t.failed <- t.failed + 1;
      go (k + 1)
    end
    else d
  in
  let d = go 1 in
  (d, List.rev !times)

let finish d t ~setup ~requests ~seconds extra =
  let rss = Proc.peak_rss_mb d.Proc.pid in
  t.attempted <- t.attempted + 1;
  if not (Proc.stop d) then t.failed <- t.failed + 1;
  let median s = Stats.median (Stats.to_array s) in
  print_endline
    (Out.obj
       ([ ("setup_s", Out.list Out.num setup);
          ("work_s", Out.num (median t.block_s));
          ("blocks", Out.int t.block_s.len);
          ("p50_us", Out.num (median t.window_p50));
          ("p99_us", Out.num (median t.window_p99));
          ("requests", Out.int requests);
          ("req_per_s", Out.num (float_of_int requests /. seconds));
          ("peak_rss_mb", Out.num rss);
          ("attempted", Out.int t.attempted);
          ("failed", Out.int t.failed) ]
       @ List.map (fun (k, v) -> (k, Out.num v)) extra))

(* --- serve_query_hot ------------------------------------------------------------------ *)

let query args =
  let toy = List.mem "--toy" args in
  let bin = Out.arg "--confcase" args in
  let seed = int_of_string (Out.arg "--seed" args) in
  let seconds = float_of_string (Out.arg "--seconds" args) in
  let setups = int_of_string (Out.arg "--setups" args) in
  let case_path = Out.arg "--case" args and belief_path = Out.arg "--belief" args in
  let shape = if toy then Casegen.toy else Casegen.full in
  let model = Casegen.generate ~shape ~out:case_path ~seed () in
  Out_channel.with_open_bin belief_path (fun oc ->
      output_string oc (Mix.belief_text ~seed));
  let q =
    Mix.query ~model ~gen_fanout:(if toy then 3 else 10)
      ~named:(if toy then 40 else 2000) ~seed
  in
  (* --corrupt: a wrong expected answer for the first warm-up key. *)
  if List.mem "--corrupt" args then
    q.values.(q.named.(0)) <- Float.succ q.values.(q.named.(0));
  let t = tally () in
  let d, setup =
    set_ups bin t ~count:setups (fun () ->
        Mix.query_setup q ~case_path ~belief_path ~seed)
  in
  let warm = Array.of_list (Mix.query_warmup q) in
  let i = ref 0 in
  Proc.closed_loop d ~inflight:16
    ~next:(fun () ->
      if !i < Array.length warm then begin
        incr i;
        Some warm.(!i - 1)
      end
      else None)
    ~on_response:(account t ~timed:false);
  (* The daemon is still collecting the garbage of the load: run the mix
     untimed until that has settled. *)
  let settle = Clock.now () in
  let settle_s = if toy then 0.2 else 3.0 in
  Proc.closed_loop d ~inflight:16
    ~next:(fun () -> if Clock.s_since settle < settle_s then Some (Mix.query_next q) else None)
    ~on_response:(account t ~timed:false);
  (* Timed phase: one client, 16 requests in flight, closed loop. *)
  let block = if toy then 1000 else 10_000 in
  let done_ = ref 0 in
  let t0 = Clock.now () in
  let tb = ref t0 in
  Proc.closed_loop d ~inflight:16
    ~next:(fun () -> if Clock.s_since t0 < seconds then Some (Mix.query_next q) else None)
    ~on_response:(fun r l ns ->
      account t ~timed:true r l ns;
      incr done_;
      (* Latency windows of 1000 requests leave ten samples beyond p99. *)
      if !done_ mod 1000 = 0 then close_window t;
      if !done_ mod block = 0 then begin
        let now = Clock.now () in
        Stats.push t.block_s (Int64.to_float (Int64.sub now !tb) *. 1e-9);
        tb := now
      end);
  let elapsed = Clock.s_since t0 in
  finish d t ~setup ~requests:!done_ ~seconds:elapsed
    [ ("eval_p50_us", op_quantile t Mix.Evaluate 0.5);
      ("eval_p99_us", op_quantile t Mix.Evaluate 0.99);
      ("edit_p50_us", op_quantile t Mix.Edit 0.5);
      ("edit_p99_us", op_quantile t Mix.Edit 0.99);
      ("quantile_p50_us", op_quantile t Mix.Quantile 0.5) ]

(* --- serve_stream_bulk ------------------------------------------------------------------- *)

let stream args =
  let toy = List.mem "--toy" args in
  let bin = Out.arg "--confcase" args in
  let seed = int_of_string (Out.arg "--seed" args) in
  let seconds = float_of_string (Out.arg "--seconds" args) in
  let setups = int_of_string (Out.arg "--setups" args) in
  let burst, bursts, extras = if toy then (100, 10, 1000) else (1000, 50, 100_000) in
  let s = Mix.stream ~seed in
  let t = tally () in
  let d, setup = set_ups bin t ~count:setups (fun () -> Mix.stream_setup s) in
  (* --corrupt: a wrong expected total for stream s0. *)
  if List.mem "--corrupt" args then s.demands.(0) <- 1;
  let on_response = account t ~timed:true in
  (* One block: [bursts] bursts of [burst] ingests, a posterior after
     every fifth burst, and one trajectory at the end.  Latency
     percentiles are taken per burst: a request's latency depends on its
     place in the burst, and a stall late in one burst should not set the
     block's p99.  The trajectory's own latency joins the next burst's
     window. *)
  let requests = ref 0 in
  let t0 = Clock.now () in
  while Clock.s_since t0 < seconds do
    let tb = Clock.now () in
    for b = 1 to bursts do
      let reqs = Array.init burst (fun _ -> Mix.ingest s) in
      let reqs = if b mod 5 = 0 then Array.append reqs [| Mix.posterior s |] else reqs in
      Proc.exchange d reqs ~on_response;
      close_window t;
      requests := !requests + Array.length reqs
    done;
    Proc.exchange d [| Mix.trajectory s ~extras |] ~on_response;
    incr requests;
    Stats.push t.block_s (Clock.s_since tb)
  done;
  let elapsed = Clock.s_since t0 in
  finish d t ~setup ~requests:!requests ~seconds:elapsed
    [ ("ingest_p50_us", op_quantile t Mix.Ingest 0.5);
      ("ingest_p99_us", op_quantile t Mix.Ingest 0.99);
      ("trajectory_s", op_quantile t Mix.Trajectory 0.5 *. 1e-6) ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "write-case" :: args -> write_case args
  | _ :: "query" :: args -> query args
  | _ :: "stream" :: args -> stream args
  | _ ->
    prerr_endline "usage: cbench (write-case|query|stream) ...";
    exit 2
