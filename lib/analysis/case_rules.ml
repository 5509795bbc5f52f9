module D = Diagnostic
module F = Casekit.Case_format

(* Argument-shape smells (C007/C008): deeper or wider than this and the
   case has stopped being reviewable by a human assessor. *)
let max_depth = 8
let max_fan_out = 10

let codes =
  [ ("C000", D.Error, "document does not lex; nothing can be analysed");
    ("C001", D.Error, "duplicate node id");
    ("C002", D.Error, "confidence or validity probability outside (0,1]");
    ("C003", D.Warning, "confidence or validity probability of exactly 1.0 \
                         claims certainty");
    ("C004", D.Error, "goal with no supporting children");
    ("C005", D.Warning, "goal with a single child (a vacuous `any`, or \
                         indirection under `all`)");
    ("C006", D.Error, "assumption attached to no goal");
    ("C007", D.Warning, Printf.sprintf "argument deeper than %d levels" max_depth);
    ("C008", D.Warning, Printf.sprintf "goal with more than %d children" max_fan_out);
    ("C009", D.Warning, "legs of an `any` goal share evidence, so they are \
                         not independent alternatives");
    ("C010", D.Error, "indentation fault (level jump, or indented root)");
    ("C011", D.Error, "multiple root nodes");
    ("C012", D.Error, "evidence cannot have children") ]

(* [first_equal n keys] — for each row [i < n], the first row [j <= i]
   with an equal key.  Open addressing over row indices: nothing is
   allocated per row, which at 10^6 rows is most of a [Hashtbl]'s cost. *)
let first_equal n keys =
  let size = ref 1 in
  while !size < 2 * n do size := 2 * !size done;
  let mask = !size - 1 and slots = Array.make !size (-1) in
  Array.init n (fun i ->
      let s = ref (Hashtbl.hash keys.(i) land mask) in
      while slots.(!s) >= 0 && not (String.equal keys.(slots.(!s)) keys.(i)) do
        s := (!s + 1) land mask
      done;
      if slots.(!s) < 0 then slots.(!s) <- i;
      slots.(!s))

(* C009: independence between legs of an `any` goal is what two-leg
   composition (Section 4.2) relies on; the same piece of evidence cited in
   two legs silently breaks it.  Evidence is matched by normalised
   statement text (matching ids are already C001). *)
let check_shared_evidence (r : F.rows) kids emit =
  (* [stop.(i)]: one past the end of row [i]'s subtree, a contiguous range. *)
  let stop = Array.init r.n (fun i -> i + 1) in
  for i = r.n - 1 downto 0 do
    let p = r.parent.(i) in
    if p >= 0 then stop.(p) <- max stop.(p) stop.(i)
  done;
  (* Each statement is normalised once.  [key.(i)] stands for evidence row
     [i]'s normalised text: the first row with the same key. *)
  let key =
    first_equal r.n
      (Array.init r.n (fun i ->
           if r.kind.(i) <> F.Evidence then ""
           else String.lowercase_ascii (String.trim r.statement.(i))))
  in
  (* Per-goal state, indexed by key and reset by stamping with the goal:
     [cited.(k) = g] once goal [g] cited key [k], first at leaf position
     [first_at.(k)]; [counted.(k) = g] once [k] counts as shared in [g]. *)
  let cited = Array.make r.n (-1) and counted = Array.make r.n (-1) in
  let first_at = Array.make r.n 0 in
  (* A goal's evidence leaves are the evidence rows of its subtree with no
     evidence row between it and them: [above.(i)] is the nearest evidence
     ancestor of row [i] (-1 if none). *)
  let above = Array.make r.n (-1) in
  for i = 0 to r.n - 1 do
    let p = r.parent.(i) in
    if p >= 0 then above.(i) <- (if r.kind.(p) = F.Evidence then p else above.(p))
  done;
  let leaves = Array.make r.n 0 and leg_of = Array.make r.n 0 in
  for g = 0 to r.n - 1 do
    if r.kind.(g) = F.Any_goal && kids.(g) >= 2 then begin
      let count = ref 0 and leg = ref (-1) in
      for i = g + 1 to stop.(g) - 1 do
        if r.parent.(i) = g && r.kind.(i) <> F.Assume then incr leg;
        if r.kind.(i) = F.Evidence && above.(i) < g then begin
          leaves.(!count) <- i;
          leg_of.(!count) <- !leg;
          incr count
        end
      done;
      (* Pass 1: the goal's overlap fraction — distinct statements cited
         from two or more legs, over all distinct statements under the
         goal: the quotient [Graph.overlap_fraction] derives from DAG
         structure, so the warning and the propagation-time correlation
         floor agree on one number. *)
      let distinct = ref 0 and shared = ref 0 in
      for c = 0 to !count - 1 do
        let k = key.(leaves.(c)) in
        if cited.(k) <> g then begin
          cited.(k) <- g;
          first_at.(k) <- c;
          incr distinct
        end
        else if leg_of.(first_at.(k)) <> leg_of.(c) && counted.(k) <> g then begin
          counted.(k) <- g;
          incr shared
        end
      done;
      let fraction =
        if !distinct = 0 then 0.0
        else float_of_int !shared /. float_of_int !distinct
      in
      (* Pass 2: one diagnostic per cross-leg repeat citation. *)
      for c = 0 to !count - 1 do
        let ev = leaves.(c) and f = first_at.(key.(leaves.(c))) in
        let src = leaves.(f) in
        if leg_of.(f) <> leg_of.(c) then
          emit ev [ ("overlap_fraction", fraction) ]
            (Printf.sprintf
               "evidence %s restates %s (line %d) from another leg of `any` \
                goal %s: the legs are not independent, which invalidates \
                multi-leg composition (%.0f%% of this goal's evidence is \
                shared)"
               r.id.(ev) r.id.(src) r.line.(src) r.id.(g) (100.0 *. fraction))
      done
    end
  done

let check_rows (r : F.rows) =
  let diags = ref [] in
  (* [diag code severity i fmt ...]: a diagnostic at row [i], at its id
     unless [col] says otherwise. *)
  let diag code severity ?(col = 0) ?data i =
    Printf.ksprintf (fun msg ->
        let col = if col = 0 then r.id_col.(i) else col in
        diags := D.make ~code ~severity ~line:r.line.(i) ~col ?data msg :: !diags)
  in
  (* One sweep in source order.  Structure (C006/C010/C011/C012) comes
     from each row's lenient parent, so one structural error does not hide
     the rest.  Depth (C007) is the parent's plus one, per top-level
     argument (a root owns the rows up to the next root).  Assumptions are
     neither children nor levels. *)
  let first = first_equal r.n r.id in
  let kids = Array.make r.n 0 and depth = Array.make r.n 1 in
  let root = ref 0 and deepest = ref 1 in
  let flush_depth () =
    if !deepest > max_depth then
      diag "C007" D.Warning !root
        "argument is %d levels deep (more than %d): deep chains multiply \
         doubt and are hard to review"
        !deepest max_depth
  in
  for i = 0 to r.n - 1 do
    let p = r.parent.(i) and id = r.id.(i) and assume = r.kind.(i) = F.Assume in
    if p < 0 then begin
      if i > 0 then begin
        flush_depth ();
        diag "C011" D.Error i
          "node %s is a second root: a case document holds one argument" id
      end
      else if r.indent.(i) > 0 then
        diag "C010" D.Error ~col:1 i "root must not be indented";
      if assume then
        diag "C006" D.Error i
          "assumption %s is attached to no goal (it is at top level)" id;
      root := i;
      deepest := 1
    end
    else begin
      if r.indent.(i) > r.indent.(p) + 1 then
        diag "C010" D.Error ~col:1 i
          "indentation jumps more than one level (%d to %d)" r.indent.(p)
          r.indent.(i);
      if r.kind.(p) = F.Evidence then
        if assume then
          diag "C006" D.Error i
            "assumption %s is attached to evidence %s, not a goal" id r.id.(p)
        else
          diag "C012" D.Error i "evidence %s cannot support child %s" r.id.(p)
            id;
      if not assume then begin
        kids.(p) <- kids.(p) + 1;
        depth.(i) <- depth.(p) + 1;
        deepest := max !deepest depth.(i)
      end
    end;
    if first.(i) < i then
      diag "C001" D.Error i "duplicate node id %s (first declared at line %d)"
        id r.line.(first.(i));
    let v = r.value.(i) and col = r.value_col.(i) in
    let what = if assume then "validity probability" else "confidence" in
    if r.kind.(i) = F.Evidence || assume then
      if not (v > 0.0 && v <= 1.0) then
        diag "C002" D.Error ~col i "%s %g of %s is outside (0,1]" what v id
      else if v = 1.0 then
        diag "C003" D.Warning ~col i
          "%s 1.0 of %s claims certainty; the paper's point is that doubt \
           never vanishes — use a value below 1"
          what id
  done;
  if r.n > 0 then flush_depth ();
  (* Child counts (C004/C005/C008). *)
  for g = 0 to r.n - 1 do
    let k = kids.(g) and id = r.id.(g) in
    match r.kind.(g) with
    | F.Evidence | F.Assume -> ()
    | _ when k = 0 -> diag "C004" D.Error g "goal %s has no supporting children" id
    | F.Any_goal when k = 1 ->
      diag "C005" D.Warning g
        "`any` goal %s has a single leg: the alternative is vacuous" id
    | F.All_goal when k = 1 ->
      diag "C005" D.Warning g
        "goal %s has a single child: it adds a layer without adding an \
         argument"
        id
    | _ when k > max_fan_out ->
      diag "C008" D.Warning g
        "goal %s combines %d children (more than %d): consider grouping them \
         into subgoals"
        id k max_fan_out
    | _ -> ()
  done;
  check_shared_evidence r kids (fun i data ->
      diag "C009" D.Warning ~data i "%s");
  if r.n = 0 then
    [ D.make ~code:"C000" ~severity:D.Error ~line:0 "empty case document" ]
  else D.sort !diags

let scan text =
  match F.scan text with
  | exception F.Parse_error e ->
    ( None,
      [ D.make ~code:"C000" ~severity:D.Error ~line:e.line ~col:e.col e.message ] )
  | rows -> (Some rows, check_rows rows)

let check text = snd (scan text)
