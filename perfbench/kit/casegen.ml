(* Seeded writer of case files in the documented text format, and the
   benchmark's own model of what it wrote.

   The writer emits text directly (it never goes through the program's
   printer or generator), with generator-assigned ids, a unique statement
   per node and a few planted defects at known lines:
   - C003: an evidence item held with confidence exactly 1;
   - C005: a bottom goal with a single child;
   - C009: an evidence statement in a later leg restating one of leg 0.
   The model keeps the tree in flat arrays and evaluates it with its own
   folds, in the same left-to-right order the format's semantics fix, so
   the root it predicts is the value any correct propagation prints. *)

type shape = { legs : int; fanout : int; depth : int }

(* 9 legs x fanout 10 x depth 5: 10^6 nodes before the C005 plants. *)
let full = { legs = 9; fanout = 10; depth = 5 }

let toy = { legs = 3; fanout = 4; depth = 3 }

let node_bound { legs; fanout; depth } =
  let sub = ref 1 in
  for _ = 1 to depth do
    sub := 1 + (fanout * !sub)
  done;
  1 + (legs * !sub)

type t = {
  n : int;
  kind : Bytes.t;  (* 'A' all goal, 'Y' any goal, 'E' evidence *)
  conf : float array;  (* evidence confidence, exactly as the parser reads it *)
  avalid : float array;  (* goal: product of its assumption validities *)
  kids : int array array;  (* goal: children in file order *)
  parent : int array;  (* -1 at the root *)
  line : int array;  (* 1-based source line of each node *)
  lines : int;  (* lines in the file (nodes plus assumptions) *)
  planted : (string * int) list;  (* (code, line) of each planted defect *)
}

let planted_per_code = 3

let is_goal t i = Bytes.get t.kind i <> 'E'

type role = Single | Certain of int | Source of int * int | Restate of int * int

(* Distinct random integers from [lo, hi). *)
let pick_distinct st ~count ~lo ~hi taken =
  let rec go acc k =
    if k = 0 then List.rev acc
    else begin
      let x = lo + Random.State.int st (hi - lo) in
      if Hashtbl.mem taken x then go acc k
      else begin
        Hashtbl.add taken x ();
        go (x :: acc) (k - 1)
      end
    end
  in
  go [] count

(* [generate ~shape ~seed ?out ()] builds the model and, with [out],
   writes the case file.  Interior goals are [all] except at height 4,
   where they are [any]; with leaf confidences in [0.997, 0.999] this
   keeps every level's value well inside (0, 1), so no leg is vacuous and
   the root is not saturated. *)
let generate ?(shape = full) ?out ~seed () =
  let { legs; fanout; depth } = shape in
  if legs < 2 || fanout < 2 || depth < 1 then
    invalid_arg "Casegen.generate: need legs >= 2, fanout >= 2, depth >= 1";
  let cap = node_bound shape in
  let kind = Bytes.make cap 'E' in
  let conf = Array.make cap 0.0 in
  let avalid = Array.make cap 1.0 in
  let kids = Array.make cap [||] in
  let parent = Array.make cap (-1) in
  let line = Array.make cap 0 in
  let st = Random.State.make [| seed; 0x0ca5e |] in
  (* Planted defects sit on distinct bottom goals (goals whose children
     are leaves): restatement sources in leg 0, everything else later. *)
  let per_leg = ref 1 in
  for _ = 2 to depth do
    per_leg := !per_leg * fanout
  done;
  let per_leg = !per_leg in
  let roles = Hashtbl.create 16 in
  let taken = Hashtbl.create 16 in
  let k = planted_per_code in
  let later = pick_distinct st ~count:(3 * k) ~lo:per_leg ~hi:(legs * per_leg) taken in
  let sources = pick_distinct st ~count:k ~lo:0 ~hi:per_leg taken in
  let slot () = Random.State.int st fanout in
  List.iteri
    (fun j b ->
      Hashtbl.replace roles b
        (if j < k then Single
         else if j < 2 * k then Certain (slot ())
         else Restate (j - (2 * k), slot ())))
    later;
  List.iteri (fun j b -> Hashtbl.replace roles b (Source (j, slot ()))) sources;
  let oc = Option.map open_out_bin out in
  let lines = ref 0 in
  let pads = Array.init (depth + 3) (fun d -> String.make (2 * d) ' ') in
  let emit parts =
    incr lines;
    match oc with
    | None -> ()
    | Some oc ->
      List.iter (output_string oc) parts;
      output_char oc '\n'
  in
  let next = ref 0 in
  let n_assume = ref 0 in
  let bottom = ref 0 in
  let sourced = Array.make k "" in
  let planted = ref [] in
  let plant code l = planted := (code, l) :: !planted in
  let new_node c p =
    let i = !next in
    incr next;
    Bytes.set kind i c;
    parent.(i) <- p;
    line.(i) <- !lines + 1;
    i
  in
  let leaf ~level p ~certain ~statement =
    let i = new_node 'E' p in
    let q = 0.001 +. Random.State.float st 0.002 in
    let text = if certain then "1" else Printf.sprintf "%.6f" (1.0 -. q) in
    conf.(i) <- float_of_string text;
    let statement =
      match statement with
      | Some s -> s
      | None -> Printf.sprintf "Evidence E%d is observed" i
    in
    emit [ pads.(level); "evidence E"; string_of_int i; " \""; statement; "\" "; text ];
    (i, statement)
  in
  let rec goal ~level ~h p =
    let comb = if h = 4 then 'Y' else 'A' in
    let i = new_node comb p in
    emit
      [ pads.(level); "goal G"; string_of_int i; " \"Goal G"; string_of_int i;
        " is argued\" "; (if comb = 'Y' then "any" else "all") ];
    if Random.State.float st 1.0 < 0.05 then begin
      let text = Printf.sprintf "%.6f" (0.99 +. Random.State.float st 0.0099) in
      let a = !n_assume in
      incr n_assume;
      avalid.(i) <- 1.0 *. float_of_string text;
      emit
        [ pads.(level + 1); "assume A"; string_of_int a; " \"Assumption A";
          string_of_int a; " holds\" "; text ]
    end;
    let children =
      if h = 1 then begin
        let ord = !bottom in
        incr bottom;
        let role = Hashtbl.find_opt roles ord in
        let width = if role = Some Single then 1 else fanout in
        if role = Some Single then plant "C005" line.(i);
        let cs = Array.make width 0 in
        for s = 0 to width - 1 do
          let certain = role = Some (Certain s) in
          let restated =
            match role with
            | Some (Restate (j, s')) when s' = s -> Some j
            | _ -> None
          in
          let statement = Option.map (fun j -> sourced.(j)) restated in
          let c, text = leaf ~level:(level + 1) i ~certain ~statement in
          if certain then plant "C003" line.(c);
          if restated <> None then plant "C009" line.(c);
          (match role with
          | Some (Source (j, s')) when s' = s -> sourced.(j) <- text
          | _ -> ());
          cs.(s) <- c
        done;
        cs
      end
      else begin
        let cs = Array.make fanout 0 in
        for s = 0 to fanout - 1 do
          cs.(s) <- goal ~level:(level + 1) ~h:(h - 1) i
        done;
        cs
      end
    in
    kids.(i) <- children;
    i
  in
  let root = new_node 'Y' (-1) in
  emit [ "goal G0 \"Goal G0 is argued\" any" ];
  let legs_arr = Array.make legs 0 in
  for j = 0 to legs - 1 do
    legs_arr.(j) <- goal ~level:1 ~h:depth root
  done;
  kids.(root) <- legs_arr;
  Option.iter close_out oc;
  let n = !next in
  {
    n;
    kind = Bytes.sub kind 0 n;
    conf = Array.sub conf 0 n;
    avalid = Array.sub avalid 0 n;
    kids = Array.sub kids 0 n;
    parent = Array.sub parent 0 n;
    line = Array.sub line 0 n;
    lines = !lines;
    planted = List.sort compare !planted;
  }

(* A C003 leaf under an [all] goal multiplies by exactly 1.0: removing it
   cannot change the goal's value or interval, so the audit also reports
   it as a vacuous leg (C014), anchored at the leaf. *)
let expected_audit t =
  List.sort compare
    (t.planted
    @ List.filter_map
        (fun (code, l) -> if code = "C003" then Some ("C014", l) else None)
        t.planted)

(* --- the reference model ----------------------------------------------------- *)

type dep = Independent | Frechet_lower | Frechet_upper

let goal_value t dep values i =
  let ks = t.kids.(i) in
  let all = Bytes.get t.kind i = 'A' in
  let combined =
    match (all, dep) with
    | true, Independent ->
      Array.fold_left (fun acc c -> acc *. values.(c)) 1.0 ks
    | true, Frechet_lower ->
      let s = Array.fold_left (fun acc c -> acc +. values.(c)) 0.0 ks in
      let v = s -. (float_of_int (Array.length ks) -. 1.0) in
      if 0.0 >= v then 0.0 else v
    | true, Frechet_upper ->
      Array.fold_left
        (fun m c -> if not (m <= values.(c)) then values.(c) else m)
        1.0 ks
    | false, Independent ->
      1.0 -. Array.fold_left (fun acc c -> acc *. (1.0 -. values.(c))) 1.0 ks
    | false, Frechet_lower ->
      Array.fold_left
        (fun m c -> if not (m >= values.(c)) then values.(c) else m)
        0.0 ks
    | false, Frechet_upper ->
      let s = Array.fold_left (fun acc c -> acc +. values.(c)) 0.0 ks in
      if 1.0 <= s then 1.0 else s
  in
  combined *. t.avalid.(i)

(* Children always follow their parent in file order, so one descending
   sweep evaluates the whole tree. *)
let values t dep =
  let v = Array.make t.n 0.0 in
  for i = t.n - 1 downto 0 do
    v.(i) <- (if is_goal t i then goal_value t dep v i else t.conf.(i))
  done;
  v

(* [set_evidence t values i c] — the model side of a single-evidence edit
   under the independent model: re-fold the ancestors of [i]. *)
let set_evidence t values i c =
  t.conf.(i) <- c;
  values.(i) <- c;
  let p = ref t.parent.(i) in
  while !p >= 0 do
    values.(!p) <- goal_value t Independent values !p;
    p := t.parent.(!p)
  done
