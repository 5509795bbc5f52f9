(* The two serve traffic mixes, as request lines paired with the check
   that the matching response line must pass.  The same mixes drive the
   daemon from outside (untraced) and the engine in-process (traced). *)

type op = Setup | Evaluate | Edit | Quantile | Ingest | Posterior | Trajectory

let op_name = function
  | Setup -> "setup"
  | Evaluate -> "evaluate"
  | Edit -> "edit"
  | Quantile -> "quantile"
  | Ingest -> "ingest"
  | Posterior -> "posterior"
  | Trajectory -> "trajectory"

type request = { line : string; op : op; check : string -> bool }

(* --- response scanning -------------------------------------------------------- *)

let find_from s i sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j =
    j = m || (String.unsafe_get s (i + j) = String.unsafe_get sub j && matches i (j + 1))
  in
  let rec go i = if i + m > n then -1 else if matches i 0 then i else go (i + 1) in
  go i

let contains s sub = find_from s 0 sub >= 0

let starts_with s p =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The server echoes the request id as the first member. *)
let ok_prefix id = Printf.sprintf "{\"id\":%d,\"ok\":true," id

let bits_of s =
  match find_from s 0 "\"bits\":\"" with
  | -1 -> None
  | i -> Int64.of_string_opt (String.sub s (i + 8) 18)

let bits_are s x = bits_of s = Some (Int64.bits_of_float x)

let count_sub s sub =
  let m = String.length sub in
  let rec go i acc =
    match find_from s i sub with -1 -> acc | j -> go (j + m) (acc + 1)
  in
  go 0 0

(* First-seen table: the first response for a key fixes its answer, and
   every later response for the same key must repeat it bit for bit. *)
let consistent table key v =
  match Hashtbl.find_opt table key with
  | None ->
    Hashtbl.add table key v;
    true
  | Some v' -> v = v'

(* --- serve_query_hot ------------------------------------------------------------ *)

(* Generated cases: 9 legs x fanout 10 x depth 4 = 10^5 nodes each.  Each
   case keeps one dependence model, named on its evaluates and edits. *)
let generated = [| ("g1", "\"frechet-lower\""); ("g2", "0.3"); ("g3", "\"frechet-upper\"") |]

type query = {
  model : Casegen.t;
  values : float array;  (* current node values of the loaded case *)
  named : int array;  (* goals evaluated by id on the loaded case *)
  main_edits : (int * float * float) array;  (* leaf, original, alternate *)
  main_alt : bool array;
  gen_fanout : int;
  gen_edits : int array;  (* evidence indices in a generated case *)
  gen_state : int array array;  (* per case: 0 original, 1 or 2 alternates *)
  quantile_ps : float array;
  seen : (string, int64) Hashtbl.t;
  st : Random.State.t;
  mutable next_id : int;
}

let query ~model ~gen_fanout ~named ~seed =
  let st = Random.State.make [| seed; 0x9e7 |] in
  let goals = ref [] and leaves = ref [] in
  for i = model.Casegen.n - 1 downto 1 do
    if Casegen.is_goal model i then goals := i :: !goals
    else if model.conf.(i) < 1.0 then leaves := i :: !leaves
  done;
  let goals = Array.of_list !goals and leaves = Array.of_list !leaves in
  let choose pool count =
    let taken = Hashtbl.create 64 in
    Array.of_list
      (List.map
         (fun k -> pool.(k))
         (Casegen.pick_distinct st ~count:(min count (Array.length pool)) ~lo:0
            ~hi:(Array.length pool) taken))
  in
  let named = choose goals named in
  let main_edits =
    Array.map
      (fun i ->
        let c = model.conf.(i) in
        (i, c, float_of_string (Printf.sprintf "%.6f" (c -. 0.0005))))
      (choose leaves 32)
  in
  (* The generator numbers nodes children-first, so the first bottom
     goal's leaves are 0..fanout-1 and the next one's follow its goal. *)
  let gen_edits =
    Array.init (2 * gen_fanout) (fun k ->
        if k < gen_fanout then k else k + 1)
  in
  {
    model;
    values = Casegen.values model Casegen.Independent;
    named;
    main_edits;
    main_alt = Array.make (Array.length main_edits) false;
    gen_fanout;
    gen_edits;
    gen_state = Array.map (fun _ -> Array.make (Array.length gen_edits) 0) generated;
    quantile_ps = Array.init 16 (fun k -> (float_of_int k +. 0.5) /. 16.0);
    seen = Hashtbl.create 4096;
    st;
    next_id = 0;
  }

(* The belief the query mix loads: a 5% atom at zero and a lognormal. *)
let belief_text ~seed =
  Printf.sprintf "atom 0 0.05\nlognormal mode %de-3 sigma %g weight 0.95\n"
    (1 + (abs seed mod 9))
    (0.5 +. (0.1 *. float_of_int (abs seed mod 5)))

let fresh_id q =
  let id = q.next_id in
  q.next_id <- id + 1;
  id

let query_setup q ~case_path ~belief_path ~seed =
  let depth = 4 in
  let lines =
    [ Printf.sprintf "{\"op\":\"load\",\"case\":\"main\",\"path\":%S}" case_path ]
    @ Array.to_list
        (Array.mapi
           (fun k (name, _) ->
             Printf.sprintf
               "{\"op\":\"generate\",\"case\":%S,\"legs\":9,\"fanout\":%d,\"depth\":%d,\"seed\":%d}"
               name q.gen_fanout depth (seed + k + 1))
           generated)
    @ [ Printf.sprintf "{\"op\":\"load_belief\",\"belief\":\"b\",\"path\":%S}" belief_path ]
  in
  List.map
    (fun body ->
      let id = fresh_id q in
      (* splice the id in as the first member *)
      let line =
        Printf.sprintf "{\"id\":%d,%s" id (String.sub body 1 (String.length body - 1))
      in
      { line; op = Setup; check = (fun r -> starts_with r (ok_prefix id)) })
    lines

let evaluate_main q ?(memo = true) node ~check =
  let id = fresh_id q in
  let expected = q.values.(node) in
  {
    line =
      Printf.sprintf
        "{\"id\":%d,\"op\":\"evaluate\",\"case\":\"main\",\"node\":\"G%d\",\"dependence\":\"independent\"%s}"
        id node (if memo then "" else ",\"memo\":false");
    op = Evaluate;
    check = (fun r -> starts_with r (ok_prefix id) && bits_are r expected && check r);
  }

let gen_key q g = Printf.sprintf "%s/%s" (fst generated.(g))
    (String.concat "" (Array.to_list (Array.map string_of_int q.gen_state.(g))))

let evaluate_gen q ?(memo = true) g ~check =
  let id = fresh_id q in
  let name, dep = generated.(g) in
  let key = gen_key q g in
  {
    line =
      Printf.sprintf "{\"id\":%d,\"op\":\"evaluate\",\"case\":%S,\"dependence\":%s%s}"
        id name dep (if memo then "" else ",\"memo\":false");
    op = Evaluate;
    check =
      (fun r ->
        starts_with r (ok_prefix id)
        && (match bits_of r with Some b -> consistent q.seen key b | None -> false)
        && check r);
  }

(* Warm-up: for every key, a cold evaluation (memo bypassed), a memoised
   one, and a third that must be the first hit and repeat the cold bits. *)
let query_warmup q =
  let triple make =
    let cold = ref None in
    [ make ~memo:false ~check:(fun r -> cold := bits_of r; !cold <> None);
      make ~memo:true ~check:(fun _ -> true);
      make ~memo:true ~check:(fun r ->
          contains r "\"cached\":true" && bits_of r = !cold) ]
  in
  List.concat
    (Array.to_list
       (Array.map
          (fun node -> triple (fun ~memo ~check -> evaluate_main q ~memo node ~check))
          q.named)
    @ List.init (Array.length generated) (fun g ->
          triple (fun ~memo ~check -> evaluate_gen q ~memo g ~check)))

let no_check _ = true

(* One request of the timed mix: 85% evaluate (70% of them by id on the
   loaded case, the rest on generated roots), 10% single-evidence edit
   spread over the four cases, 5% quantile. *)
let query_next q =
  let r = Random.State.float q.st 1.0 in
  if r < 0.85 then begin
    if Random.State.float q.st 1.0 < 0.7 then
      evaluate_main q q.named.(Random.State.int q.st (Array.length q.named)) ~check:no_check
    else evaluate_gen q (Random.State.int q.st (Array.length generated)) ~check:no_check
  end
  else if r < 0.95 then begin
    let id = fresh_id q in
    let c = Random.State.int q.st (1 + Array.length generated) in
    if c = 0 then begin
      let k = Random.State.int q.st (Array.length q.main_edits) in
      let leaf, orig, alt = q.main_edits.(k) in
      q.main_alt.(k) <- not q.main_alt.(k);
      let v = if q.main_alt.(k) then alt else orig in
      Casegen.set_evidence q.model q.values leaf v;
      let expected = q.values.(0) in
      {
        line =
          Printf.sprintf
            "{\"id\":%d,\"op\":\"edit\",\"case\":\"main\",\"evidence\":\"E%d\",\"value\":%.17g,\"dependence\":\"independent\"}"
            id leaf v;
        op = Edit;
        check = (fun r -> starts_with r (ok_prefix id) && bits_are r expected);
      }
    end
    else begin
      let g = c - 1 in
      let k = Random.State.int q.st (Array.length q.gen_edits) in
      let s = 1 + Random.State.int q.st 2 in
      q.gen_state.(g).(k) <- s;
      let name, dep = generated.(g) in
      let key = gen_key q g in
      {
        line =
          Printf.sprintf
            "{\"id\":%d,\"op\":\"edit\",\"case\":%S,\"node\":%d,\"value\":%s,\"dependence\":%s}"
            id name q.gen_edits.(k) (if s = 1 then "0.96" else "0.98") dep;
        op = Edit;
        check =
          (fun r ->
            starts_with r (ok_prefix id)
            && match bits_of r with Some b -> consistent q.seen key b | None -> false);
      }
    end
  end
  else begin
    let id = fresh_id q in
    let p = q.quantile_ps.(Random.State.int q.st (Array.length q.quantile_ps)) in
    let key = Printf.sprintf "q/%.17g" p in
    {
      line = Printf.sprintf "{\"id\":%d,\"op\":\"quantile\",\"belief\":\"b\",\"p\":%.17g}" id p;
      op = Quantile;
      check =
        (fun r ->
          starts_with r (ok_prefix id)
          &&
          match find_from r 0 "\"value\":" with
          | -1 -> false
          | i ->
            let j = String.index_from r i '}' in
            consistent q.seen key
              (Int64.bits_of_float (float_of_string (String.sub r (i + 8) (j - i - 8)))));
    }
  end

(* --- serve_stream_bulk -------------------------------------------------------------- *)

let streams = 8

type stream = {
  events : int array;
  demands : int array;
  failures : int array;
  sst : Random.State.t;
  mutable sid : int;
}

let stream ~seed =
  {
    events = Array.make streams 0;
    demands = Array.make streams 0;
    failures = Array.make streams 0;
    sst = Random.State.make [| seed; 0x57e |];
    sid = 0;
  }

let stream_id s =
  let id = s.sid in
  s.sid <- id + 1;
  id

let stream_setup s =
  List.init streams (fun k ->
      let id = stream_id s in
      {
        line =
          Printf.sprintf
            "{\"id\":%d,\"op\":\"stream\",\"stream\":\"s%d\",\"beta_a\":%g,\"beta_b\":%g}"
            id k (1.0 +. (0.5 *. float_of_int k)) (1.0 +. float_of_int k);
        op = Setup;
        check = (fun r -> starts_with r (ok_prefix id));
      })

(* Every stream response carries the exact totals the posterior is a
   function of; they must equal the sums the producer sent. *)
let totals s k =
  Printf.sprintf "\"events\":%d,\"demands\":%d,\"failures\":%d," s.events.(k)
    s.demands.(k) s.failures.(k)

let ingest s =
  let id = stream_id s in
  let k = Random.State.int s.sst streams in
  let d = 1 + Random.State.int s.sst 1000 in
  let f = if Random.State.int s.sst 100 = 0 then 1 else 0 in
  s.events.(k) <- s.events.(k) + 1;
  s.demands.(k) <- s.demands.(k) + d;
  s.failures.(k) <- s.failures.(k) + f;
  let expected = totals s k in
  {
    line =
      Printf.sprintf "{\"id\":%d,\"op\":\"ingest\",\"stream\":\"s%d\",\"demands\":%d,\"failures\":%d}"
        id k d f;
    op = Ingest;
    check = (fun r -> starts_with r (ok_prefix id) && contains r expected);
  }

let posterior s =
  let id = stream_id s in
  let k = Random.State.int s.sst streams in
  let expected = totals s k in
  {
    line = Printf.sprintf "{\"id\":%d,\"op\":\"posterior\",\"stream\":\"s%d\",\"bound\":0.01}" id k;
    op = Posterior;
    check = (fun r -> starts_with r (ok_prefix id) && contains r expected && bits_of r <> None);
  }

(* A trajectory over extras 1..n: one point per extra. *)
let trajectory s ~extras =
  let id = stream_id s in
  let k = Random.State.int s.sst streams in
  let b = Buffer.create (8 * extras) in
  Printf.bprintf b "{\"id\":%d,\"op\":\"trajectory\",\"stream\":\"s%d\",\"bound\":0.01,\"extras\":[" id k;
  for e = 1 to extras do
    if e > 1 then Buffer.add_char b ',';
    Buffer.add_string b (string_of_int e)
  done;
  Buffer.add_string b "]}";
  {
    line = Buffer.contents b;
    op = Trajectory;
    check =
      (fun r ->
        starts_with r (ok_prefix id)
        && contains r "\"points\":[{\"extra\":1,"
        && count_sub r "{\"extra\":" = extras);
  }
