module Columns = Numerics.Columns
module Parallel = Numerics.Parallel

type dependence =
  | Independent
  | Frechet_lower
  | Frechet_upper
  | Correlated of float

type kind = Evidence | All_goal | Any_goal

(* Kind tags, one byte per node. *)
let tag_evidence = '\000'
let tag_all = '\001'
let tag_any = '\002'

(* Growable binary min-heap over node indices.  Popping yields ascending
   indices, i.e. children before parents — the index invariant turned
   into a work queue.  Two instances per graph: one for the value
   frontier, one for the structural-hash frontier. *)
module Iheap = struct
  type h = { mutable a : int array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let push h i =
    let len = h.len in
    if len = Array.length h.a then begin
      let bigger = Array.make (max 16 (2 * len)) 0 in
      Array.blit h.a 0 bigger 0 len;
      h.a <- bigger
    end;
    let a = h.a in
    a.(len) <- i;
    h.len <- len + 1;
    let j = ref len in
    while !j > 0 && a.((!j - 1) / 2) > a.(!j) do
      let p = (!j - 1) / 2 in
      let tmp = a.(p) in
      a.(p) <- a.(!j);
      a.(!j) <- tmp;
      j := p
    done

  let pop h =
    let a = h.a in
    let top = a.(0) in
    let len = h.len - 1 in
    h.len <- len;
    if len > 0 then begin
      a.(0) <- a.(len);
      let j = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !j) + 1 and r = (2 * !j) + 2 in
        let s = ref !j in
        if l < len && a.(l) < a.(!s) then s := l;
        if r < len && a.(r) < a.(!s) then s := r;
        if !s = !j then continue := false
        else begin
          let tmp = a.(!s) in
          a.(!s) <- a.(!j);
          a.(!j) <- tmp;
          j := !s
        end
      done
    end;
    top
end

type t = {
  n : int;
  root : int;
  kinds : Bytes.t;
  (* CSR adjacency: children of [i] are child.(child_off.(i)) ..
     child.(child_off.(i+1) - 1), in emission order; parents likewise.
     Children always have smaller indices than their parents, so index
     order is a topological order. *)
  child_off : int array;
  child : int array;
  parent_off : int array;
  parent : int array;
  ids : string array; (* "" = anonymous *)
  statements : string array;
  index : (string, int) Hashtbl.t; (* node id -> index *)
  aindex : (string, int) Hashtbl.t; (* assumption id -> owning goal *)
  assumption_lists : Node.assumption list array;
  base : Columns.t; (* evidence confidence (0 for goals) *)
  avalid : Columns.t; (* product of assumption validities *)
  overlap : Columns.t; (* shared-evidence fraction of Any goals *)
  value : Columns.t; (* last propagated values *)
  (* Level schedule: level 0 = leaves, level of a goal = 1 + max child
     level.  level_nodes.(level_off.(l)) .. are the indices at level l,
     ascending. *)
  height : int;
  level_off : int array;
  level_nodes : int array;
  (* Incremental state: dirty.(i) set iff i is in the heap; the heap is a
     binary min-heap over indices, so refresh pops children before
     parents. *)
  dirty : Bytes.t;
  heap : Iheap.h;
  mutable last_dep : dependence option;
  (* Structural-hash state: one more unboxed column (int64 bits rather
     than float64), maintained by the same dirty-frontier discipline as
     the value column.  [shash] is only meaningful once [hash_valid];
     the first {!structural_hash} query pays one full leaf-up pass, and
     edits thereafter mark [hdirty]/[hheap] so re-hashing touches only
     the edited cone. *)
  shash : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable hash_valid : bool;
  hdirty : Bytes.t;
  hheap : Iheap.h;
}

let mark_dirty t i =
  if Bytes.get t.dirty i = '\000' then begin
    Bytes.set t.dirty i '\001';
    Iheap.push t.heap i
  end

let clear_dirty t =
  for k = 0 to t.heap.Iheap.len - 1 do
    Bytes.set t.dirty t.heap.Iheap.a.(k) '\000'
  done;
  t.heap.Iheap.len <- 0

let mark_hash_dirty t i =
  if Bytes.get t.hdirty i = '\000' then begin
    Bytes.set t.hdirty i '\001';
    Iheap.push t.hheap i
  end

(* --- shared-evidence overlap ----------------------------------------------- *)

(* For each Any goal whose subtree contains a multi-parent node: the
   fraction of distinct evidence items under the goal that are reachable
   from two or more of its legs.  Computed once at build time — the
   overlap depends only on structure, which edits never change — and the
   same count/count quotient the C009 rule reports, so the static warning
   and the quantitative penalty agree on the number. *)
let compute_overlap ~n ~kinds ~child_off ~child ~parent_off ~overlap =
  (* multi.(i): does i's subtree (including i) contain a node with >= 2
     parents?  Children precede parents, so one ascending pass works. *)
  let multi = Array.make n false in
  for i = 0 to n - 1 do
    let m = ref (parent_off.(i + 1) - parent_off.(i) >= 2) in
    let e = ref child_off.(i) in
    let lim = child_off.(i + 1) in
    while (not !m) && !e < lim do
      if multi.(child.(!e)) then m := true;
      incr e
    done;
    multi.(i) <- !m
  done;
  if Array.exists (fun x -> x) multi then begin
    (* Ticket-stamped scratch: visit deduplicates nodes within one leg's
       DFS; ev_goal/ev_leg track, per goal, which leg first cited each
       evidence item (-1 = already counted as shared). *)
    let visit = Array.make n (-1) in
    let ev_goal = Array.make n (-1) in
    let ev_leg = Array.make n 0 in
    let ticket = ref 0 in
    let stack = ref (Array.make 1024 0) in
    let top = ref 0 in
    let push v =
      if !top = Array.length !stack then begin
        let ns = Array.make (2 * !top) 0 in
        Array.blit !stack 0 ns 0 !top;
        stack := ns
      end;
      !stack.(!top) <- v;
      incr top
    in
    for gi = 0 to n - 1 do
      if
        Bytes.get kinds gi = tag_any
        && multi.(gi)
        && child_off.(gi + 1) - child_off.(gi) >= 2
      then begin
        let distinct = ref 0 and shared = ref 0 in
        let nkids = child_off.(gi + 1) - child_off.(gi) in
        for leg = 0 to nkids - 1 do
          incr ticket;
          let tk = !ticket in
          push child.(child_off.(gi) + leg);
          while !top > 0 do
            decr top;
            let v = !stack.(!top) in
            if visit.(v) <> tk then begin
              visit.(v) <- tk;
              if Bytes.get kinds v = tag_evidence then begin
                if ev_goal.(v) <> gi then begin
                  ev_goal.(v) <- gi;
                  ev_leg.(v) <- leg;
                  incr distinct
                end
                else if ev_leg.(v) >= 0 && ev_leg.(v) <> leg then begin
                  ev_leg.(v) <- -1;
                  incr shared
                end
              end
              else
                for e = child_off.(v) to child_off.(v + 1) - 1 do
                  push child.(e)
                done
            end
          done
        done;
        if !distinct > 0 then
          Columns.set overlap gi
            (float_of_int !shared /. float_of_int !distinct)
      end
    done
  end

(* --- builder ---------------------------------------------------------------- *)

module Builder = struct
  type b = {
    mutable bn : int;
    mutable bkinds : Bytes.t;
    mutable bids : string array;
    mutable bstatements : string array;
    mutable bassumptions : Node.assumption list array;
    bbase : Columns.t;
    bavalid : Columns.t;
    mutable bchild_off : int array; (* capacity + 1 entries *)
    mutable bchild : int array;
    mutable bchild_len : int;
    bindex : (string, int) Hashtbl.t;
    baindex : (string, int) Hashtbl.t;
  }

  let create ?(capacity = 16) () =
    let cap = max capacity 1 in
    {
      bn = 0;
      bkinds = Bytes.make cap tag_evidence;
      bids = Array.make cap "";
      bstatements = Array.make cap "";
      bassumptions = Array.make cap [];
      bbase = Columns.create ~capacity:cap ();
      bavalid = Columns.create ~capacity:cap ();
      bchild_off = Array.make (cap + 1) 0;
      bchild = Array.make (max cap 16) 0;
      bchild_len = 0;
      (* Sized for a fully named graph: growing a million-entry table
         rehashes every id at each doubling. *)
      bindex = Hashtbl.create cap;
      baindex = Hashtbl.create 16;
    }

  let grow_nodes b =
    let cap = Bytes.length b.bkinds in
    if b.bn >= cap then begin
      let ncap = 2 * cap in
      let k = Bytes.make ncap tag_evidence in
      Bytes.blit b.bkinds 0 k 0 cap;
      b.bkinds <- k;
      let garr a def =
        let na = Array.make ncap def in
        Array.blit a 0 na 0 cap;
        na
      in
      b.bids <- garr b.bids "";
      b.bstatements <- garr b.bstatements "";
      b.bassumptions <- garr b.bassumptions [];
      let noff = Array.make (ncap + 1) 0 in
      Array.blit b.bchild_off 0 noff 0 (cap + 1);
      b.bchild_off <- noff
    end

  (* Node and assumption ids share one namespace; [table] is the one [id]
     goes into. *)
  let intern b table id i =
    if id <> "" then begin
      if Hashtbl.mem b.bindex id || Hashtbl.mem b.baindex id then
        invalid_arg (Printf.sprintf "Graph.Builder: duplicate id %s" id);
      Hashtbl.add table id i
    end

  let evidence b ?(id = "") ?(statement = "") ~confidence () =
    if not (confidence > 0.0 && confidence <= 1.0) then
      invalid_arg "Graph.Builder.evidence: confidence must be in (0,1]";
    grow_nodes b;
    let i = b.bn in
    intern b b.bindex id i;
    Bytes.set b.bkinds i tag_evidence;
    b.bids.(i) <- id;
    b.bstatements.(i) <- statement;
    Columns.push b.bbase confidence;
    Columns.push b.bavalid 1.0;
    b.bchild_off.(i + 1) <- b.bchild_len;
    b.bn <- i + 1;
    i

  let goal b ?(id = "") ?(statement = "") ?(assumptions = []) ~combinator kids
      =
    if Array.length kids = 0 then
      invalid_arg "Graph.Builder.goal: a goal needs support";
    Array.iter
      (fun c ->
        if c < 0 || c >= b.bn then
          invalid_arg "Graph.Builder.goal: child index out of range")
      kids;
    grow_nodes b;
    let i = b.bn in
    intern b b.bindex id i;
    List.iter
      (fun (a : Node.assumption) ->
        if not (a.p_valid > 0.0 && a.p_valid <= 1.0) then
          invalid_arg "Graph.Builder.goal: p_valid must be in (0,1]";
        intern b b.baindex a.aid i)
      assumptions;
    Bytes.set b.bkinds i
      (match combinator with Node.All -> tag_all | Node.Any -> tag_any);
    b.bids.(i) <- id;
    b.bstatements.(i) <- statement;
    b.bassumptions.(i) <- assumptions;
    Columns.push b.bbase 0.0;
    (* Left fold from 1.0, as set_assumption recomputes it. *)
    Columns.push b.bavalid
      (List.fold_left
         (fun acc (a : Node.assumption) -> acc *. a.p_valid)
         1.0 assumptions);
    if b.bchild_len + Array.length kids > Array.length b.bchild then begin
      let ncap =
        max (2 * Array.length b.bchild) (b.bchild_len + Array.length kids)
      in
      let nc = Array.make ncap 0 in
      Array.blit b.bchild 0 nc 0 b.bchild_len;
      b.bchild <- nc
    end;
    Array.blit kids 0 b.bchild b.bchild_len (Array.length kids);
    b.bchild_len <- b.bchild_len + Array.length kids;
    b.bchild_off.(i + 1) <- b.bchild_len;
    b.bn <- i + 1;
    i

  let build b ~root =
    if b.bn = 0 then invalid_arg "Graph.Builder.build: empty graph";
    if root < 0 || root >= b.bn then
      invalid_arg "Graph.Builder.build: root out of range";
    let n = b.bn in
    let kinds = Bytes.sub b.bkinds 0 n in
    let ids = Array.sub b.bids 0 n in
    let statements = Array.sub b.bstatements 0 n in
    let assumption_lists = Array.sub b.bassumptions 0 n in
    let child_off = Array.sub b.bchild_off 0 (n + 1) in
    let child = Array.sub b.bchild 0 b.bchild_len in
    (* Parent CSR by counting sort over the child array. *)
    let parent_off = Array.make (n + 1) 0 in
    Array.iter (fun c -> parent_off.(c + 1) <- parent_off.(c + 1) + 1) child;
    for i = 0 to n - 1 do
      parent_off.(i + 1) <- parent_off.(i + 1) + parent_off.(i)
    done;
    let parent = Array.make (max b.bchild_len 1) 0 in
    let cursor = Array.sub parent_off 0 n in
    for i = 0 to n - 1 do
      for e = child_off.(i) to child_off.(i + 1) - 1 do
        let c = child.(e) in
        parent.(cursor.(c)) <- i;
        cursor.(c) <- cursor.(c) + 1
      done
    done;
    (* Levels: leaves at 0, goal = 1 + max child level. *)
    let levels = Array.make n 0 in
    let height = ref 1 in
    for i = 0 to n - 1 do
      if Bytes.get kinds i <> tag_evidence then begin
        let m = ref 0 in
        for e = child_off.(i) to child_off.(i + 1) - 1 do
          let l = levels.(child.(e)) in
          if l > !m then m := l
        done;
        levels.(i) <- !m + 1;
        if !m + 2 > !height then height := !m + 2
      end
    done;
    let height = !height in
    let level_off = Array.make (height + 1) 0 in
    Array.iter (fun l -> level_off.(l + 1) <- level_off.(l + 1) + 1) levels;
    for l = 0 to height - 1 do
      level_off.(l + 1) <- level_off.(l + 1) + level_off.(l)
    done;
    let level_nodes = Array.make n 0 in
    let lcursor = Array.sub level_off 0 height in
    for i = 0 to n - 1 do
      let l = levels.(i) in
      level_nodes.(lcursor.(l)) <- i;
      lcursor.(l) <- lcursor.(l) + 1
    done;
    let overlap = Columns.make n 0.0 in
    compute_overlap ~n ~kinds ~child_off ~child ~parent_off ~overlap;
    {
      n;
      root;
      kinds;
      child_off;
      child;
      parent_off;
      parent;
      ids;
      statements;
      index = b.bindex;
      aindex = b.baindex;
      assumption_lists;
      base = b.bbase;
      avalid = b.bavalid;
      overlap;
      value = Columns.make n 0.0;
      height;
      level_off;
      level_nodes;
      dirty = Bytes.make n '\000';
      heap = Iheap.create ();
      last_dep = None;
      shash = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n;
      hash_valid = false;
      hdirty = Bytes.make n '\000';
      hheap = Iheap.create ();
    }
end

(* --- bridges ---------------------------------------------------------------- *)

let of_node root_node =
  let b = Builder.create ~capacity:(Node.size root_node) () in
  (* Children first, left to right.  The recursion is as deep as the tree
     is high, which OCaml 5's growable stacks take even on a 10^5-deep
     chain. *)
  let rec emit = function
    | Node.Evidence e ->
      Builder.evidence b ~id:e.id ~statement:e.statement
        ~confidence:e.confidence ()
    | Node.Goal g ->
      let kids = List.rev (List.rev_map emit g.supported_by) in
      Builder.goal b ~id:g.id ~statement:g.statement ~assumptions:g.assumptions
        ~combinator:g.combinator (Array.of_list kids)
  in
  Builder.build b ~root:(emit root_node)

let is_tree t =
  let ok = ref true in
  for i = 0 to t.n - 1 do
    if t.parent_off.(i + 1) - t.parent_off.(i) >= 2 then ok := false
  done;
  !ok

let to_node t =
  if not (is_tree t) then
    invalid_arg "Graph.to_node: graph is a DAG (shared support has no tree \
                 rendering)";
  (* Anonymous (generated) nodes are named [#i], as the audit prints them,
     so the tree passes [Node]'s non-empty-id rule and prints to text its
     own parser reads back.  Should an authored node or assumption already
     hold that name, primes are appended until it is free; only ids that
     start with [#] can clash, so only those are noted. *)
  let taken = Hashtbl.create 64 in
  let note id = if id <> "" && id.[0] = '#' then Hashtbl.replace taken id () in
  Array.iter note t.ids;
  Array.iter (List.iter (fun (a : Node.assumption) -> note a.aid)) t.assumption_lists;
  let name i =
    match t.ids.(i) with
    | "" ->
      let rec free s = if Hashtbl.mem taken s then free (s ^ "'") else s in
      free (Printf.sprintf "#%d" i)
    | id -> id
  in
  (* Recursion depth is the tree height — fine for authored cases; the
     graphs deep enough to threaten the stack are generated DAG benches
     that never come back through here. *)
  let rec build i =
    if Bytes.get t.kinds i = tag_evidence then
      Node.evidence ~id:(name i) ~statement:t.statements.(i)
        ~confidence:(Columns.get t.base i)
    else begin
      let kids = ref [] in
      for e = t.child_off.(i + 1) - 1 downto t.child_off.(i) do
        kids := build t.child.(e) :: !kids
      done;
      let combinator =
        if Bytes.get t.kinds i = tag_all then Node.All else Node.Any
      in
      Node.goal ~id:(name i) ~statement:t.statements.(i) ~combinator
        ~assumptions:t.assumption_lists.(i) !kids
    end
  in
  build t.root

(* --- propagation kernels ---------------------------------------------------- *)

let check_dep = function
  | Correlated rho ->
    if not (rho >= 0.0 && rho <= 1.0) then
      invalid_arg "Graph.propagate: rho out of [0,1]"
  | Independent | Frechet_lower | Frechet_upper -> ()

(* Combined (pre-assumption) value of goal [i] given its children's values
   in [vdata].  Each branch replays the exact float operations (and order)
   of a left [List] fold over the children (the reference folds kept as
   the test oracle), so on trees the result is bit-identical to them.
   The inlined min/max mirror Stdlib.min/max: fold min keeps acc when
   acc <= c, fold max keeps acc when acc >= c.  Shared between [compute]
   (concrete propagation) and [propagate_bounds] (interval sweep):
   running the same arithmetic over the lo and hi columns is what makes
   point intervals collapse to the propagated bits exactly. *)
let combine t dep vdata i =
  let tag = Bytes.unsafe_get t.kinds i in
  begin
    let off = Array.unsafe_get t.child_off i in
    let lim = Array.unsafe_get t.child_off (i + 1) in
    let combined =
      if tag = tag_all then
        match dep with
        | Independent ->
          let acc = ref 1.0 in
          for e = off to lim - 1 do
            acc :=
              !acc
              *. Bigarray.Array1.unsafe_get vdata (Array.unsafe_get t.child e)
          done;
          !acc
        | Frechet_lower ->
          let s = ref 0.0 in
          for e = off to lim - 1 do
            s :=
              !s
              +. Bigarray.Array1.unsafe_get vdata (Array.unsafe_get t.child e)
          done;
          let v = !s -. (float_of_int (lim - off) -. 1.0) in
          if 0.0 >= v then 0.0 else v
        | Frechet_upper ->
          let m = ref 1.0 in
          for e = off to lim - 1 do
            let c =
              Bigarray.Array1.unsafe_get vdata (Array.unsafe_get t.child e)
            in
            if not (!m <= c) then m := c
          done;
          !m
        | Correlated rho ->
          let ind = ref 1.0 and como = ref 1.0 in
          for e = off to lim - 1 do
            let c =
              Bigarray.Array1.unsafe_get vdata (Array.unsafe_get t.child e)
            in
            ind := !ind *. c;
            if not (!como <= c) then como := c
          done;
          let ov = Columns.unsafe_get t.overlap i in
          let rho = if ov > rho then ov else rho in
          ((1.0 -. rho) *. !ind) +. (rho *. !como)
      else
        match dep with
        | Independent ->
          let acc = ref 1.0 in
          for e = off to lim - 1 do
            acc :=
              !acc
              *. (1.0
                 -. Bigarray.Array1.unsafe_get vdata
                      (Array.unsafe_get t.child e))
          done;
          1.0 -. !acc
        | Frechet_lower ->
          let m = ref 0.0 in
          for e = off to lim - 1 do
            let c =
              Bigarray.Array1.unsafe_get vdata (Array.unsafe_get t.child e)
            in
            if not (!m >= c) then m := c
          done;
          !m
        | Frechet_upper ->
          let s = ref 0.0 in
          for e = off to lim - 1 do
            s :=
              !s
              +. Bigarray.Array1.unsafe_get vdata (Array.unsafe_get t.child e)
          done;
          if 1.0 <= !s then 1.0 else !s
        | Correlated rho ->
          let ind = ref 1.0 and como = ref 0.0 in
          for e = off to lim - 1 do
            let c =
              Bigarray.Array1.unsafe_get vdata (Array.unsafe_get t.child e)
            in
            ind := !ind *. (1.0 -. c);
            if not (!como >= c) then como := c
          done;
          (* Shared-evidence discount: legs citing the same evidence are
             at least that correlated, so floor rho at the overlap. *)
          let ov = Columns.unsafe_get t.overlap i in
          let rho = if ov > rho then ov else rho in
          ((1.0 -. rho) *. (1.0 -. !ind)) +. (rho *. !como)
    in
    combined
  end

(* Value of node [i] given its children's values in [vdata]: evidence
   reads its base confidence, a goal combines its children and applies
   the assumption-validity product. *)
let compute t dep vdata i =
  if Bytes.unsafe_get t.kinds i = tag_evidence then Columns.unsafe_get t.base i
  else combine t dep vdata i *. Columns.unsafe_get t.avalid i

let propagate dep t =
  check_dep dep;
  let vdata = Columns.unsafe_data t.value in
  for i = 0 to t.n - 1 do
    Bigarray.Array1.unsafe_set vdata i (compute t dep vdata i)
  done;
  clear_dirty t;
  t.last_dep <- Some dep;
  Bigarray.Array1.unsafe_get vdata t.root

(* Below this many nodes a level is evaluated inline: dispatch overhead
   would swamp the work. *)
let par_level_threshold = 4096

let propagate_par ~pool ?chunks dep t =
  check_dep dep;
  let chunks =
    match chunks with Some c -> c | None -> Parallel.default_chunks ~pool ()
  in
  if chunks < 1 then invalid_arg "Graph.propagate_par: chunks must be >= 1";
  let vdata = Columns.unsafe_data t.value in
  let run_slice s e =
    for k = s to e - 1 do
      let i = Array.unsafe_get t.level_nodes k in
      Bigarray.Array1.unsafe_set vdata i (compute t dep vdata i)
    done
  in
  for l = 0 to t.height - 1 do
    let off = t.level_off.(l) and lim = t.level_off.(l + 1) in
    let count = lim - off in
    if count < par_level_threshold || chunks = 1 then run_slice off lim
    else begin
      let sizes = Parallel.chunk_sizes ~n:count ~chunks in
      let starts = Array.make (chunks + 1) off in
      for c = 0 to chunks - 1 do
        starts.(c + 1) <- starts.(c) + sizes.(c)
      done;
      ignore
        (Parallel.map_chunks ~pool ~chunks (fun c ->
             run_slice starts.(c) starts.(c + 1)))
    end
  done;
  clear_dirty t;
  t.last_dep <- Some dep;
  Bigarray.Array1.unsafe_get vdata t.root

(* --- incremental edits ------------------------------------------------------- *)

let set_evidence t i confidence =
  if i < 0 || i >= t.n then invalid_arg "Graph.set_evidence: index out of range";
  if Bytes.get t.kinds i <> tag_evidence then
    invalid_arg "Graph.set_evidence: not an evidence node";
  if not (confidence > 0.0 && confidence <= 1.0) then
    invalid_arg "Graph.set_evidence: confidence must be in (0,1]";
  Columns.set t.base i confidence;
  mark_dirty t i;
  if t.hash_valid then mark_hash_dirty t i

let set_assumption t ~id ~p_valid =
  if not (p_valid > 0.0 && p_valid <= 1.0) then
    invalid_arg "Graph.set_assumption: p_valid must be in (0,1]";
  match Hashtbl.find_opt t.aindex id with
  | None -> raise Not_found
  | Some gi ->
    t.assumption_lists.(gi) <-
      List.map
        (fun (a : Node.assumption) ->
          if a.aid = id then { a with p_valid } else a)
        t.assumption_lists.(gi);
    Columns.set t.avalid gi
      (List.fold_left
         (fun acc (a : Node.assumption) -> acc *. a.p_valid)
         1.0
         t.assumption_lists.(gi));
    mark_dirty t gi;
    if t.hash_valid then mark_hash_dirty t gi

let same_dep a b =
  match (a, b) with
  | Independent, Independent
  | Frechet_lower, Frechet_lower
  | Frechet_upper, Frechet_upper -> true
  | Correlated x, Correlated y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let refresh dep t =
  match t.last_dep with
  | Some d when same_dep d dep ->
    let vdata = Columns.unsafe_data t.value in
    while t.heap.Iheap.len > 0 do
      let i = Iheap.pop t.heap in
      Bytes.set t.dirty i '\000';
      let v = compute t dep vdata i in
      if
        not
          (Int64.equal (Int64.bits_of_float v)
             (Int64.bits_of_float (Bigarray.Array1.unsafe_get vdata i)))
      then begin
        Bigarray.Array1.unsafe_set vdata i v;
        (* The value actually changed: parents are now stale.  When an
           edit's effect dies out (e.g. under a min) this branch is not
           taken and the cone is cut off early. *)
        for e = t.parent_off.(i) to t.parent_off.(i + 1) - 1 do
          mark_dirty t t.parent.(e)
        done
      end
    done;
    Bigarray.Array1.unsafe_get vdata t.root
  | _ -> propagate dep t

let invalidate t = t.last_dep <- None

(* --- content-addressed structural hashing ------------------------------------ *)

(* Splitmix64 finalizer: full-avalanche 64-bit bijection. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Order-sensitive combine: children hashed in emission order stay
   distinguishable from any permutation. *)
let hash_mix h x = mix64 (Int64.add (Int64.mul h 0x9E3779B97F4A7C15L) x)

let seed_evidence = 0x2545F4914F6CDD1DL
let seed_all = 0x6A09E667F3BCC909L
let seed_any = 0xBB67AE8584CAA73BL

(* Leaf-up hash of node [i], children's hashes already in [hdata].
   Covers exactly the evaluation-relevant state: an evidence node is its
   confidence bits; a goal is its combinator tag, assumption-validity
   product, structural overlap fraction, and child hashes in order.
   Statements and ids are deliberately excluded — two sub-cases with the
   same shape and numbers evaluate identically, which is what a
   value-memo key must capture. *)
let node_hash t hdata i =
  let tag = Bytes.unsafe_get t.kinds i in
  if tag = tag_evidence then
    hash_mix seed_evidence (Int64.bits_of_float (Columns.unsafe_get t.base i))
  else begin
    let seed = if tag = tag_all then seed_all else seed_any in
    let h = ref (hash_mix seed (Int64.bits_of_float (Columns.unsafe_get t.avalid i))) in
    h := hash_mix !h (Int64.bits_of_float (Columns.unsafe_get t.overlap i));
    for e = Array.unsafe_get t.child_off i
        to Array.unsafe_get t.child_off (i + 1) - 1 do
      h :=
        hash_mix !h
          (Bigarray.Array1.unsafe_get hdata (Array.unsafe_get t.child e))
    done;
    !h
  end

let refresh_hashes t =
  let hdata = t.shash in
  if not t.hash_valid then begin
    (* First query: one full leaf-up pass (index order is topological).
       Any staged hash dirt predates this pass, so drop it. *)
    for i = 0 to t.n - 1 do
      Bigarray.Array1.unsafe_set hdata i (node_hash t hdata i)
    done;
    for k = 0 to t.hheap.Iheap.len - 1 do
      Bytes.set t.hdirty t.hheap.Iheap.a.(k) '\000'
    done;
    t.hheap.Iheap.len <- 0;
    t.hash_valid <- true
  end
  else
    (* Same early-cutoff discipline as [refresh]: re-hash the dirty
       frontier children-first, propagate to parents only when the bits
       actually changed (an edit reverted to the previous confidence
       stops at the leaf). *)
    while t.hheap.Iheap.len > 0 do
      let i = Iheap.pop t.hheap in
      Bytes.set t.hdirty i '\000';
      let h = node_hash t hdata i in
      if not (Int64.equal h (Bigarray.Array1.unsafe_get hdata i)) then begin
        Bigarray.Array1.unsafe_set hdata i h;
        for e = t.parent_off.(i) to t.parent_off.(i + 1) - 1 do
          mark_hash_dirty t t.parent.(e)
        done
      end
    done

let structural_hash t i =
  if i < 0 || i >= t.n then
    invalid_arg "Graph.structural_hash: index out of range";
  refresh_hashes t;
  Bigarray.Array1.get t.shash i

let root_hash t =
  refresh_hashes t;
  Bigarray.Array1.get t.shash t.root

let dependence_hash = function
  | Independent -> mix64 1L
  | Frechet_lower -> mix64 2L
  | Frechet_upper -> mix64 3L
  | Correlated rho -> hash_mix (mix64 4L) (Int64.bits_of_float rho)

(* --- static-analysis kernels --------------------------------------------------- *)

(* Every combinator above is monotone nondecreasing in each child value
   for a fixed dependence model (products of values in [0,1], clamped
   sums, min, max, and nonnegative blends of those), so an interval
   [lo, hi] per node propagates by running the same arithmetic over the
   lo column and the hi column separately.  With point leaf intervals
   (lo = hi = base) both sweeps replay [compute]'s float operations
   exactly, so the interval collapses to the propagated value bit for
   bit — the soundness anchor the property tests pin. *)
let propagate_bounds ?(leaf_bounds = fun _ -> (0.0, 1.0))
    ?(with_assumptions = true) dep t =
  check_dep dep;
  let lo = Columns.make t.n 0.0 in
  let hi = Columns.make t.n 0.0 in
  let lod = Columns.unsafe_data lo in
  let hid = Columns.unsafe_data hi in
  for i = 0 to t.n - 1 do
    if Bytes.unsafe_get t.kinds i = tag_evidence then begin
      let l, h = leaf_bounds i in
      if not (l >= 0.0 && l <= h && h <= 1.0) then
        invalid_arg
          "Graph.propagate_bounds: leaf bounds must satisfy 0 <= lo <= hi <= 1";
      Bigarray.Array1.unsafe_set lod i l;
      Bigarray.Array1.unsafe_set hid i h
    end
    else begin
      let av = if with_assumptions then Columns.unsafe_get t.avalid i else 1.0 in
      Bigarray.Array1.unsafe_set lod i (combine t dep lod i *. av);
      Bigarray.Array1.unsafe_set hid i (combine t dep hid i *. av)
    end
  done;
  (lo, hi)

(* Goal [i]'s value with its [skip]-th child removed, over an arbitrary
   value column — the vacuous-leg probe.  Replays the same fold shapes as
   [combine] (left to right, same inits) so that when the skipped child
   genuinely cannot affect the fold (a factor of exactly 1.0 under a
   product, a dominated value under min/max) the result is bitwise equal
   to the stored value. *)
let compute_excluding dep t i ~skip ~values =
  check_dep dep;
  if i < 0 || i >= t.n then
    invalid_arg "Graph.compute_excluding: index out of range";
  let tag = Bytes.get t.kinds i in
  if tag = tag_evidence then
    invalid_arg "Graph.compute_excluding: not a goal";
  let off = t.child_off.(i) and lim = t.child_off.(i + 1) in
  if skip < 0 || skip >= lim - off then
    invalid_arg "Graph.compute_excluding: child position out of range";
  let skip = off + skip in
  let vdata = Columns.unsafe_data values in
  let get e = Bigarray.Array1.unsafe_get vdata (Array.unsafe_get t.child e) in
  let combined =
    if tag = tag_all then
      match dep with
      | Independent ->
        let acc = ref 1.0 in
        for e = off to lim - 1 do
          if e <> skip then acc := !acc *. get e
        done;
        !acc
      | Frechet_lower ->
        let s = ref 0.0 in
        for e = off to lim - 1 do
          if e <> skip then s := !s +. get e
        done;
        let v = !s -. (float_of_int (lim - off - 1) -. 1.0) in
        if 0.0 >= v then 0.0 else v
      | Frechet_upper ->
        let m = ref 1.0 in
        for e = off to lim - 1 do
          if e <> skip then begin
            let c = get e in
            if not (!m <= c) then m := c
          end
        done;
        !m
      | Correlated rho ->
        let ind = ref 1.0 and como = ref 1.0 in
        for e = off to lim - 1 do
          if e <> skip then begin
            let c = get e in
            ind := !ind *. c;
            if not (!como <= c) then como := c
          end
        done;
        let ov = Columns.unsafe_get t.overlap i in
        let rho = if ov > rho then ov else rho in
        ((1.0 -. rho) *. !ind) +. (rho *. !como)
    else
      match dep with
      | Independent ->
        let acc = ref 1.0 in
        for e = off to lim - 1 do
          if e <> skip then acc := !acc *. (1.0 -. get e)
        done;
        1.0 -. !acc
      | Frechet_lower ->
        let m = ref 0.0 in
        for e = off to lim - 1 do
          if e <> skip then begin
            let c = get e in
            if not (!m >= c) then m := c
          end
        done;
        !m
      | Frechet_upper ->
        let s = ref 0.0 in
        for e = off to lim - 1 do
          if e <> skip then s := !s +. get e
        done;
        if 1.0 <= !s then 1.0 else !s
      | Correlated rho ->
        let ind = ref 1.0 and como = ref 0.0 in
        for e = off to lim - 1 do
          if e <> skip then begin
            let c = get e in
            ind := !ind *. (1.0 -. c);
            if not (!como >= c) then como := c
          end
        done;
        let ov = Columns.unsafe_get t.overlap i in
        let rho = if ov > rho then ov else rho in
        ((1.0 -. rho) *. (1.0 -. !ind)) +. (rho *. !como)
  in
  combined *. Columns.unsafe_get t.avalid i

(* Single points of failure: evidence whose individual refutation defeats
   the root no matter what the rest of the case does.  Under the boolean
   abstraction (each evidence item either holds or fails, All conjoins,
   Any disjoins) the kill set of a node is the set of evidence items
   whose lone failure makes the node fail: {e} for evidence e, the union
   of the children's kill sets for an All goal, their intersection for an
   Any goal.  Children precede parents, so one ascending pass over sorted
   int arrays computes every set; a child's array is dropped once its
   last parent has consumed it, so peak memory is bounded by the live
   frontier rather than the whole graph.  On a tree the legs of an Any
   goal have disjoint kill sets and the intersection collapses — it is
   DAG sharing that makes a multi-leg argument fail on one item. *)
let spof_evidence t =
  let union2 a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else begin
      let out = Array.make (la + lb) 0 in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < la && !j < lb do
        let x = a.(!i) and y = b.(!j) in
        if x < y then begin out.(!k) <- x; incr i end
        else if y < x then begin out.(!k) <- y; incr j end
        else begin out.(!k) <- x; incr i; incr j end;
        incr k
      done;
      while !i < la do out.(!k) <- a.(!i); incr i; incr k done;
      while !j < lb do out.(!k) <- b.(!j); incr j; incr k done;
      if !k = la + lb then out else Array.sub out 0 !k
    end
  in
  let inter2 a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then [||]
    else begin
      let out = Array.make (min la lb) 0 in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < la && !j < lb do
        let x = a.(!i) and y = b.(!j) in
        if x < y then incr i
        else if y < x then incr j
        else begin out.(!k) <- x; incr i; incr j; incr k end
      done;
      if !k = Array.length out then out else Array.sub out 0 !k
    end
  in
  let kill = Array.make t.n [||] in
  let remaining = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    remaining.(i) <- t.parent_off.(i + 1) - t.parent_off.(i)
  done;
  for i = 0 to t.n - 1 do
    let tag = Bytes.unsafe_get t.kinds i in
    if tag = tag_evidence then kill.(i) <- [| i |]
    else begin
      let off = t.child_off.(i) and lim = t.child_off.(i + 1) in
      let acc = ref kill.(t.child.(off)) in
      for e = off + 1 to lim - 1 do
        let s = kill.(t.child.(e)) in
        acc := if tag = tag_all then union2 !acc s else inter2 !acc s
      done;
      kill.(i) <- !acc;
      for e = off to lim - 1 do
        let c = t.child.(e) in
        remaining.(c) <- remaining.(c) - 1;
        (* Sets are never mutated after creation, so dropping the
           reference is safe even when a single-child goal aliases it. *)
        if remaining.(c) = 0 && c <> t.root then kill.(c) <- [||]
      done
    end
  done;
  kill.(t.root)

(* --- inspection --------------------------------------------------------------- *)

let size t = t.n
let edge_count t = Array.length t.child
let root t = t.root
let levels t = t.height

let kind_of t i =
  match Bytes.get t.kinds i with
  | c when c = tag_evidence -> Evidence
  | c when c = tag_all -> All_goal
  | _ -> Any_goal

let id_of t i = t.ids.(i)
let find t id = Hashtbl.find_opt t.index id
let value t i = Columns.get t.value i
let base_confidence t i = Columns.get t.base i

let children t i =
  Array.sub t.child t.child_off.(i) (t.child_off.(i + 1) - t.child_off.(i))

let child_count t i = t.child_off.(i + 1) - t.child_off.(i)

let parents t i =
  Array.sub t.parent t.parent_off.(i) (t.parent_off.(i + 1) - t.parent_off.(i))

let parent_count t i = t.parent_off.(i + 1) - t.parent_off.(i)

let values t = t.value

let evidence_indices t =
  let count = ref 0 in
  for i = 0 to t.n - 1 do
    if Bytes.get t.kinds i = tag_evidence then incr count
  done;
  let out = Array.make !count 0 in
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    if Bytes.get t.kinds i = tag_evidence then begin
      out.(!k) <- i;
      incr k
    end
  done;
  out

let overlap_fraction t i = Columns.get t.overlap i

let max_overlap t =
  let m = ref 0.0 in
  for i = 0 to t.n - 1 do
    let ov = Columns.get t.overlap i in
    if ov > !m then m := ov
  done;
  !m

(* --- sensitivities ------------------------------------------------------------ *)

(* Each probe edits one input and refreshes: only the input's ancestor
   cone is re-propagated, so a ranking costs O(edges touched), not
   O(n * inputs).  refresh returns exactly the bits a full propagation
   would, so the differences equal those of re-evaluating perturbed
   cases from scratch. *)
let central_difference perturb current =
  let h = 1e-4 in
  let lo = max 1e-6 (current -. h) and hi = min 1.0 (current +. h) in
  (perturb hi -. perturb lo) /. (hi -. lo)

let leaf_sensitivities dep t =
  ignore (propagate dep t);
  evidence_indices t |> Array.to_list
  |> List.map (fun i ->
         let c = Columns.get t.base i in
         let perturb x =
           set_evidence t i x;
           refresh dep t
         in
         let s = central_difference perturb c in
         set_evidence t i c;
         ignore (refresh dep t);
         (id_of t i, s))

(* Assumptions in preorder from the root, each goal's own ahead of its
   children's; an explicit stack keeps 10^6-deep chains off the call
   stack, and a goal shared by several parents is listed once. *)
let assumptions_preorder t =
  let seen = Bytes.make t.n '\000' in
  let rec go acc = function
    | [] -> List.rev acc
    | i :: rest when Bytes.get seen i <> '\000' -> go acc rest
    | i :: rest ->
      Bytes.set seen i '\001';
      let stack = ref rest in
      for e = t.child_off.(i + 1) - 1 downto t.child_off.(i) do
        stack := t.child.(e) :: !stack
      done;
      go (List.rev_append t.assumption_lists.(i) acc) !stack
  in
  go [] [ t.root ]

let assumption_sensitivities dep t =
  ignore (propagate dep t);
  List.map
    (fun (a : Node.assumption) ->
      let perturb p =
        set_assumption t ~id:a.aid ~p_valid:p;
        refresh dep t
      in
      let s = central_difference perturb a.p_valid in
      set_assumption t ~id:a.aid ~p_valid:a.p_valid;
      ignore (refresh dep t);
      (a.aid, s))
    (assumptions_preorder t)
