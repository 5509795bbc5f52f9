module G = Casekit.Graph
module P = Protocol
module D = Analysis.Diagnostic

type t = {
  cases : (string, G.t) Hashtbl.t;
  beliefs : (string, Dist.Mixture.t) Hashtbl.t;
  streams : (string, Experience.Stream.t) Hashtbl.t;
  memo : (int64, int64) Hashtbl.t;
  memo_bound : int;
  memo_lock : Mutex.t;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
}

let default_memo_bound () =
  match Sys.getenv_opt "CONFCASE_SERVE_MEMO" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> 65536)
  | None -> 65536

let create ?memo_bound () =
  let memo_bound =
    match memo_bound with Some b -> max 1 b | None -> default_memo_bound ()
  in
  {
    cases = Hashtbl.create 16;
    beliefs = Hashtbl.create 16;
    streams = Hashtbl.create 16;
    memo = Hashtbl.create 4096;
    memo_bound;
    memo_lock = Mutex.create ();
    hit_count = Atomic.make 0;
    miss_count = Atomic.make 0;
  }

let hits t = Atomic.get t.hit_count
let misses t = Atomic.get t.miss_count

let memo_entries t =
  Mutex.lock t.memo_lock;
  let n = Hashtbl.length t.memo in
  Mutex.unlock t.memo_lock;
  n

let memo_find t key =
  Mutex.lock t.memo_lock;
  let r = Hashtbl.find_opt t.memo key in
  Mutex.unlock t.memo_lock;
  r

(* Bounded wholesale eviction: the memo never exceeds [memo_bound]
   entries; on overflow it is cleared and repopulates from live traffic.
   Simpler than LRU and good enough — the bound exists to cap memory,
   not to tune retention. *)
let memo_add t key bits =
  Mutex.lock t.memo_lock;
  if Hashtbl.length t.memo >= t.memo_bound then Hashtbl.reset t.memo;
  Hashtbl.replace t.memo key bits;
  Mutex.unlock t.memo_lock

let memo_clear t =
  Mutex.lock t.memo_lock;
  Hashtbl.reset t.memo;
  Mutex.unlock t.memo_lock

(* One memo key per (sub-case structure, dependence model). *)
let combine_key shash dhash =
  Int64.logxor (Int64.mul shash 0x9E3779B97F4A7C15L) dhash

(* --- request decoding -------------------------------------------------------- *)

type edit_target =
  | Ev_id of string
  | Ev_index of int
  | Assumption of string

(* Prior declaration for a new stream accumulator: conjugate parameters
   inline, or the name of a previously loaded belief. *)
type stream_spec =
  | Spec_beta of { a : float; b : float }
  | Spec_gamma of { shape : float; rate : float }
  | Spec_belief of { belief : string; continuous : bool }

type request =
  | Load of { case : string; path : string }
  | Generate of {
      case : string;
      seed : int option;
      legs : int option;
      fanout : int option;
      depth : int option;
      shared : float option;
      leaf : (float * float) option;
    }
  | Load_belief of { belief : string; path : string }
  | Evaluate of {
      case : string;
      node : string option;
      dep : G.dependence;
      memo : bool;
    }
  | Edit of {
      case : string;
      target : edit_target;
      value : float;
      dep : G.dependence;
    }
  | Quantile of { belief : string; p : float }
  | Check of { path : string }
  | Audit of { case : string; target : float option; dep : G.dependence }
  | Stream_new of { stream : string; spec : stream_spec }
  | Stream_ingest of {
      stream : string;
      demands : int option;
      hours : float option;
      failures : int;
    }
  | Stream_posterior of { stream : string; bound : float option }
  | Stream_trajectory of {
      stream : string;
      bound : float;
      extras : float array;
    }
  | Stream_save of { stream : string; path : string }
  | Stream_load of {
      stream : string;
      path : string;
      belief : string option;
      mmap : bool;
    }
  | Stats
  | Flush
  | Shutdown
  | Bad of string

type parsed = { id : P.t option; req : request }

exception Err of string

let req_string obj k =
  match P.member k obj with
  | Some v ->
    (match P.get_string v with
    | Some s -> s
    | None -> raise (Err (Printf.sprintf "%S must be a string" k)))
  | None -> raise (Err (Printf.sprintf "missing %S" k))

let opt_string obj k =
  match P.member k obj with
  | None -> None
  | Some v ->
    (match P.get_string v with
    | Some s -> Some s
    | None -> raise (Err (Printf.sprintf "%S must be a string" k)))

let opt_num obj k =
  match P.member k obj with
  | None -> None
  | Some v ->
    (match P.get_num v with
    | Some x -> Some x
    | None -> raise (Err (Printf.sprintf "%S must be a number" k)))

let req_num obj k =
  match opt_num obj k with
  | Some x -> x
  | None -> raise (Err (Printf.sprintf "missing %S" k))

let opt_int obj k =
  match P.member k obj with
  | None -> None
  | Some v ->
    (match P.get_int v with
    | Some i -> Some i
    | None -> raise (Err (Printf.sprintf "%S must be an integer" k)))

let opt_bool obj k =
  match P.member k obj with
  | None -> None
  | Some v ->
    (match P.get_bool v with
    | Some b -> Some b
    | None -> raise (Err (Printf.sprintf "%S must be a boolean" k)))

(* Same spellings as the CLI's --dependence flag; a bare number is
   accepted as rho for JSON convenience. *)
let decode_dependence obj =
  match P.member "dependence" obj with
  | None -> G.Independent
  | Some (P.Str "independent") -> G.Independent
  | Some (P.Str "frechet-lower") -> G.Frechet_lower
  | Some (P.Str "frechet-upper") -> G.Frechet_upper
  | Some (P.Str s) ->
    (match float_of_string_opt s with
    | Some rho when rho >= 0.0 && rho <= 1.0 -> G.Correlated rho
    | _ ->
      raise
        (Err
           "\"dependence\" must be independent | frechet-lower | \
            frechet-upper | rho in [0,1]"))
  | Some (P.Num rho) when rho >= 0.0 && rho <= 1.0 -> G.Correlated rho
  | Some _ ->
    raise
      (Err
         "\"dependence\" must be independent | frechet-lower | \
          frechet-upper | rho in [0,1]")

let decode_stream_spec obj =
  let pair ka kb =
    match (opt_num obj ka, opt_num obj kb) with
    | Some a, Some b -> Some (a, b)
    | None, None -> None
    | _ -> raise (Err (Printf.sprintf "%S and %S must be given together" ka kb))
  in
  match (pair "beta_a" "beta_b", pair "gamma_shape" "gamma_rate",
         opt_string obj "belief")
  with
  | Some (a, b), None, None -> Spec_beta { a; b }
  | None, Some (shape, rate), None -> Spec_gamma { shape; rate }
  | None, None, Some belief ->
    let continuous =
      match opt_string obj "mode" with
      | None | Some "demand" -> false
      | Some "continuous" -> true
      | Some m -> raise (Err (Printf.sprintf "unknown mode %S" m))
    in
    Spec_belief { belief; continuous }
  | _ ->
    raise
      (Err
         "stream needs exactly one prior: beta_a/beta_b, \
          gamma_shape/gamma_rate, or belief")

let decode_extras obj =
  match P.member "extras" obj with
  | None -> raise (Err "missing \"extras\"")
  | Some (P.Arr vs) ->
    let extras = Array.make (List.length vs) 0.0 in
    List.iteri
      (fun i v ->
        match P.get_num v with
        | Some x -> extras.(i) <- x
        | None -> raise (Err "\"extras\" must be an array of numbers"))
      vs;
    extras
  | Some _ -> raise (Err "\"extras\" must be an array of numbers")

let decode_request obj =
  match req_string obj "op" with
  | "load" -> Load { case = req_string obj "case"; path = req_string obj "path" }
  | "generate" ->
    let leaf =
      match (opt_num obj "leaf_lo", opt_num obj "leaf_hi") with
      | None, None -> None
      | Some lo, Some hi -> Some (lo, hi)
      | _ -> raise (Err "leaf_lo and leaf_hi must be given together")
    in
    Generate
      {
        case = req_string obj "case";
        seed = opt_int obj "seed";
        legs = opt_int obj "legs";
        fanout = opt_int obj "fanout";
        depth = opt_int obj "depth";
        shared = opt_num obj "shared";
        leaf;
      }
  | "load_belief" ->
    Load_belief
      { belief = req_string obj "belief"; path = req_string obj "path" }
  | "evaluate" ->
    Evaluate
      {
        case = req_string obj "case";
        node = opt_string obj "node";
        dep = decode_dependence obj;
        memo = (match opt_bool obj "memo" with Some b -> b | None -> true);
      }
  | "edit" ->
    let target =
      match (opt_string obj "evidence", opt_int obj "node",
             opt_string obj "assumption")
      with
      | Some id, None, None -> Ev_id id
      | None, Some i, None -> Ev_index i
      | None, None, Some id -> Assumption id
      | _ ->
        raise
          (Err "edit needs exactly one of \"evidence\", \"node\", \
                \"assumption\"")
    in
    Edit
      {
        case = req_string obj "case";
        target;
        value = req_num obj "value";
        dep = decode_dependence obj;
      }
  | "quantile" ->
    Quantile { belief = req_string obj "belief"; p = req_num obj "p" }
  | "check" -> Check { path = req_string obj "path" }
  | "audit" ->
    Audit
      {
        case = req_string obj "case";
        target = opt_num obj "target";
        dep = decode_dependence obj;
      }
  | "stream" ->
    Stream_new { stream = req_string obj "stream"; spec = decode_stream_spec obj }
  | "ingest" ->
    Stream_ingest
      {
        stream = req_string obj "stream";
        demands = opt_int obj "demands";
        hours = opt_num obj "hours";
        failures = (match opt_int obj "failures" with Some f -> f | None -> 0);
      }
  | "posterior" ->
    Stream_posterior
      { stream = req_string obj "stream"; bound = opt_num obj "bound" }
  | "trajectory" ->
    Stream_trajectory
      {
        stream = req_string obj "stream";
        bound = req_num obj "bound";
        extras = decode_extras obj;
      }
  | "stream_save" ->
    Stream_save { stream = req_string obj "stream"; path = req_string obj "path" }
  | "stream_load" ->
    Stream_load
      {
        stream = req_string obj "stream";
        path = req_string obj "path";
        belief = opt_string obj "belief";
        mmap = (match opt_bool obj "mmap" with Some b -> b | None -> false);
      }
  | "stats" -> Stats
  | "flush" -> Flush
  | "shutdown" -> Shutdown
  | op -> raise (Err (Printf.sprintf "unknown op %S" op))

let parse _t line =
  match P.parse line with
  | exception P.Parse_error msg -> { id = None; req = Bad ("parse error " ^ msg) }
  | v -> (
    let id = P.member "id" v in
    match decode_request v with
    | req -> { id; req }
    | exception Err msg -> { id; req = Bad msg })

let group_key p =
  match p.req with
  | Evaluate { case; _ } | Edit { case; _ } | Audit { case; _ } ->
    Some ("c:" ^ case)
  | Quantile { belief; _ } -> Some ("b:" ^ belief)
  | Check { path } -> Some ("f:" ^ path)
  | Stream_ingest { stream; _ }
  | Stream_posterior { stream; _ }
  | Stream_trajectory { stream; _ }
  | Stream_save { stream; _ } ->
    Some ("s:" ^ stream)
  | Load _ | Generate _ | Load_belief _ | Stream_new _ | Stream_load _ | Stats
  | Flush | Shutdown | Bad _ ->
    None

let is_shutdown p = match p.req with Shutdown -> true | _ -> false

(* --- execution --------------------------------------------------------------- *)

let find_case t name =
  match Hashtbl.find_opt t.cases name with
  | Some g -> g
  | None -> raise (Err (Printf.sprintf "no case loaded as %S" name))

let find_belief t name =
  match Hashtbl.find_opt t.beliefs name with
  | Some b -> b
  | None -> raise (Err (Printf.sprintf "no belief loaded as %S" name))

let find_stream t name =
  match Hashtbl.find_opt t.streams name with
  | Some s -> s
  | None -> raise (Err (Printf.sprintf "no stream named %S" name))

let stream_mode_str s =
  match Experience.Stream.mode s with
  | Experience.Stream.Demand -> "demand"
  | Experience.Stream.Continuous -> "continuous"

(* Evidence totals carried on every stream response: the exact
   sufficient statistics the posterior is a function of. *)
let stream_totals s =
  [
    ("mode", P.Str (stream_mode_str s));
    ("events", P.Num (float_of_int (Experience.Stream.events s)));
    ("demands", P.Num (float_of_int (Experience.Stream.demands s)));
    ("failures", P.Num (float_of_int (Experience.Stream.failures s)));
    ("hours", P.Num (Experience.Stream.hours s));
  ]

let conf_fields c =
  [
    ("confidence", P.Num c);
    ("confidence_bits", P.Str (P.hex_of_bits (Int64.bits_of_float c)));
  ]

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> raise (Err msg)

let json_of_diag (d : D.t) =
  P.Obj
    ([
       ("code", P.Str d.code);
       ("severity", P.Str (D.severity_to_string d.severity));
       ("line", P.Num (float_of_int d.span.line));
       ("col", P.Num (float_of_int d.span.col));
       ("message", P.Str d.message);
     ]
    @ (match d.file with Some f -> [ ("file", P.Str f) ] | None -> []))

let diag_fields diags =
  [
    ("errors", P.Num (float_of_int (D.errors diags)));
    ("warnings", P.Num (float_of_int (D.warnings diags)));
    ("infos", P.Num (float_of_int (D.infos diags)));
    ("diagnostics", P.Arr (List.map json_of_diag diags));
  ]

let value_fields v cached =
  [
    ("value", P.Num v);
    ("bits", P.Str (P.hex_of_bits (Int64.bits_of_float v)));
    ("cached", P.Bool cached);
  ]

(* What a successful request answers: its op name and fields, or, for a
   trajectory, the points as columns, which [execute] writes straight
   into the response instead of building one value per point. *)
type reply =
  | Fields of string * (string * P.t) list
  | Points of {
      stream : string;
      bound : float;
      extras : float array;
      mean : float array;
      confidence : float array;
    }

let run t req =
  match req with
  | Bad msg -> raise (Err msg)
  | Load { case; path } ->
    let text = read_file path in
    let g =
      match Casekit.Case_format.(load (scan text)) with
      | exception Casekit.Case_format.Parse_error e ->
        raise (Err (Printf.sprintf "%s:%d:%d: %s" path e.line e.col e.message))
      | g, _ -> g
    in
    Hashtbl.replace t.cases case g;
    Fields
      ( "load",
        [
          ("case", P.Str case);
          ("nodes", P.Num (float_of_int (G.size g)));
          ("edges", P.Num (float_of_int (G.edge_count g)));
        ] )
  | Generate { case; seed; legs; fanout; depth; shared; leaf } ->
    let g = Casekit.Generate.case ?seed ?legs ?fanout ?depth ?shared ?leaf () in
    Hashtbl.replace t.cases case g;
    Fields
      ( "generate",
        [
          ("case", P.Str case);
          ("nodes", P.Num (float_of_int (G.size g)));
          ("edges", P.Num (float_of_int (G.edge_count g)));
        ] )
  | Load_belief { belief; path } ->
    let b =
      match Elicit.Belief_format.parse_file path with
      | exception Elicit.Belief_format.Parse_error e ->
        raise
          (Err
             (Printf.sprintf "%s:%d:%d: %s" path e.line e.col e.message))
      | b -> b
    in
    Hashtbl.replace t.beliefs belief b;
    Fields
      ( "load_belief",
        [
          ("belief", P.Str belief);
          ("name", P.Str (Dist.Mixture.name b));
          ("mean", P.Num (Dist.Mixture.mean b));
        ] )
  | Evaluate { case; node; dep; memo } ->
    let g = find_case t case in
    let idx =
      match node with
      | None -> G.root g
      | Some id -> (
        match G.find g id with
        | Some i -> i
        | None -> raise (Err (Printf.sprintf "no node with id %S" id)))
    in
    let key = combine_key (G.structural_hash g idx) (G.dependence_hash dep) in
    let cached_bits = if memo then memo_find t key else None in
    let v, cached =
      match cached_bits with
      | Some bits ->
        Atomic.incr t.hit_count;
        (Int64.float_of_bits bits, true)
      | None ->
        if memo then Atomic.incr t.miss_count;
        ignore (G.refresh dep g);
        let v = G.value g idx in
        if memo then memo_add t key (Int64.bits_of_float v);
        (v, false)
    in
    Fields ("evaluate", (("case", P.Str case) :: value_fields v cached))
  | Edit { case; target; value; dep } ->
    let g = find_case t case in
    (match target with
    | Ev_id id -> (
      match G.find g id with
      | Some i -> G.set_evidence g i value
      | None -> raise (Err (Printf.sprintf "no node with id %S" id)))
    | Ev_index i ->
      if i < 0 || i >= G.size g then
        raise (Err (Printf.sprintf "node index %d out of range" i));
      G.set_evidence g i value
    | Assumption id -> (
      try G.set_assumption g ~id ~p_valid:value
      with Not_found ->
        raise (Err (Printf.sprintf "no assumption with id %S" id))));
    let v = G.refresh dep g in
    (* The post-edit state is now a known (structure, dependence) point:
       memoise it so an evaluate of the same state — or an edit cycle
       that returns here — hits. *)
    memo_add t
      (combine_key (G.root_hash g) (G.dependence_hash dep))
      (Int64.bits_of_float v);
    Fields ("edit", (("case", P.Str case) :: value_fields v false))
  | Quantile { belief; p } ->
    if not (p > 0.0 && p < 1.0) then raise (Err "\"p\" must be in (0,1)");
    let b = find_belief t belief in
    let v = Dist.Mixture.quantile b p in
    Fields
      ( "quantile",
        [ ("belief", P.Str belief); ("p", P.Num p); ("value", P.Num v) ] )
  | Check { path } ->
    let diags = D.sort (Analysis.Check.check_file path) in
    Fields ("check", (("path", P.Str path) :: diag_fields diags))
  | Audit { case; target; dep } ->
    let g = find_case t case in
    let options =
      { Analysis.Audit.default_options with target; dependence = dep }
    in
    let diags = D.sort (Analysis.Audit.graph ~options g) in
    Fields ("audit", (("case", P.Str case) :: diag_fields diags))
  | Stream_new { stream; spec } ->
    let s =
      match spec with
      | Spec_beta { a; b } -> Experience.Stream.demand_beta ~a ~b
      | Spec_gamma { shape; rate } -> Experience.Stream.rate_gamma ~shape ~rate
      | Spec_belief { belief; continuous } ->
        let prior = find_belief t belief in
        if continuous then Experience.Stream.rate_of_belief prior
        else Experience.Stream.demand_of_belief prior
    in
    Hashtbl.replace t.streams stream s;
    Fields ("stream", (("stream", P.Str stream) :: stream_totals s))
  | Stream_ingest { stream; demands; hours; failures } ->
    let s = find_stream t stream in
    (match (demands, hours) with
    | Some demands, None ->
      Experience.Stream.observe_demands s ~demands ~failures
    | None, Some hours -> Experience.Stream.observe_hours s ~hours ~failures
    | _ -> raise (Err "ingest needs exactly one of \"demands\", \"hours\""));
    Fields ("ingest", (("stream", P.Str stream) :: stream_totals s))
  | Stream_posterior { stream; bound } ->
    let s = find_stream t stream in
    let mean = Experience.Stream.mean s in
    let conf =
      match bound with
      | None -> []
      | Some bound ->
        ("bound", P.Num bound)
        :: conf_fields (Experience.Stream.confidence s ~bound)
    in
    Fields
      ( "posterior",
        (("stream", P.Str stream) :: stream_totals s)
        @ value_fields mean false @ conf )
  | Stream_trajectory { stream; bound; extras } ->
    let s = find_stream t stream in
    let n = Array.length extras in
    (* Demand-mode extras must be counts.  The points before the first
       one that is not still run, in order, so an error they raise wins
       over this one. *)
    let is_count x =
      let k = int_of_float x in
      float_of_int k = x && k >= 0
    in
    let rec first_non_count i =
      if i < n && is_count extras.(i) then first_non_count (i + 1) else i
    in
    let valid =
      match Experience.Stream.mode s with
      | Experience.Stream.Continuous -> n
      | Experience.Stream.Demand -> first_non_count 0
    in
    let extras = if valid = n then extras else Array.sub extras 0 valid in
    let mean = Array.create_float valid
    and confidence = Array.create_float valid in
    Experience.Stream.trajectory_into s ~bound ~extras ~mean ~confidence;
    if valid < n then
      raise (Err "demand-mode \"extras\" must be non-negative integers");
    Points { stream; bound; extras; mean; confidence }
  | Stream_save { stream; path } ->
    let s = find_stream t stream in
    Numerics.Columns.save path (Experience.Stream.to_columns s);
    Fields
      ( "stream_save",
        (("stream", P.Str stream) :: ("path", P.Str path) :: stream_totals s) )
  | Stream_load { stream; path; belief; mmap } ->
    let prior = Option.map (find_belief t) belief in
    let s =
      match
        Experience.Stream.of_columns ?prior (Numerics.Columns.load ~mmap path)
      with
      | s -> s
      | exception Failure msg -> raise (Err msg)
      | exception Sys_error msg -> raise (Err msg)
    in
    Hashtbl.replace t.streams stream s;
    Fields ("stream_load", (("stream", P.Str stream) :: stream_totals s))
  | Stats ->
    let h = hits t and m = misses t in
    let total = h + m in
    Fields
      ( "stats",
        [
          ("hits", P.Num (float_of_int h));
          ("misses", P.Num (float_of_int m));
          ( "hit_ratio",
            if total = 0 then P.Null
            else P.Num (float_of_int h /. float_of_int total) );
          ("cases", P.Num (float_of_int (Hashtbl.length t.cases)));
          ("beliefs", P.Num (float_of_int (Hashtbl.length t.beliefs)));
          ("streams", P.Num (float_of_int (Hashtbl.length t.streams)));
          ("memo_entries", P.Num (float_of_int (memo_entries t)));
          ("memo_bound", P.Num (float_of_int t.memo_bound));
        ] )
  | Flush ->
    memo_clear t;
    Hashtbl.iter (fun _ g -> G.invalidate g) t.cases;
    Fields ("flush", [ ("flushed", P.Bool true) ])
  | Shutdown -> Fields ("shutdown", [])

(* [{"k":v,...] of [fields], the closing brace left to the caller. *)
let add_head buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      P.add_string buf k;
      Buffer.add_char buf ':';
      P.add_value buf v)
    fields

let add_points buf ~extras ~mean ~confidence =
  for i = 0 to Array.length extras - 1 do
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf "{\"extra\":";
    P.add_num buf extras.(i);
    Buffer.add_string buf ",\"mean\":";
    P.add_num buf mean.(i);
    Buffer.add_string buf ",\"confidence\":";
    P.add_num buf confidence.(i);
    Buffer.add_string buf ",\"confidence_bits\":\"";
    P.add_bits buf (Int64.bits_of_float confidence.(i));
    Buffer.add_string buf "\"}"
  done

let execute t p =
  let id_field = match p.id with Some v -> [ ("id", v) ] | None -> [] in
  let failed msg =
    let buf = Buffer.create 128 in
    add_head buf (id_field @ [ ("ok", P.Bool false); ("error", P.Str msg) ]);
    Buffer.add_char buf '}';
    Buffer.contents buf
  in
  match run t p.req with
  | Fields (op, fields) ->
    let buf = Buffer.create 256 in
    add_head buf
      (id_field @ [ ("ok", P.Bool true); ("op", P.Str op) ] @ fields);
    Buffer.add_char buf '}';
    Buffer.contents buf
  | Points { stream; bound; extras; mean; confidence } ->
    (* A point is about 100 bytes. *)
    let buf = Buffer.create (256 + (112 * Array.length extras)) in
    add_head buf
      (id_field
      @ [ ("ok", P.Bool true); ("op", P.Str "trajectory");
          ("stream", P.Str stream); ("bound", P.Num bound) ]);
    Buffer.add_string buf ",\"points\":[";
    add_points buf ~extras ~mean ~confidence;
    Buffer.add_string buf "]}";
    Buffer.contents buf
  | exception Err msg -> failed msg
  | exception Invalid_argument msg -> failed msg
  | exception exn -> failed (Printexc.to_string exn)

let handle t line = execute t (parse t line)
