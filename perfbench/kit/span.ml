(* In-memory span recorder for the traced run.  A span has a name, a
   parent (the span open when it started), start and stop times and,
   when [gc] is on, Gc.quick_stat deltas.  Nothing is written until
   [dump] runs at the end. *)

type t = {
  id : int;
  parent : int;
  mutable name : string;
  t0 : int64;
  mutable t1 : int64;
  mutable child_ns : float;
  gc : bool;
  mutable alloc_w : float;
  mutable minor : int;
  mutable major : int;
}

let log : t list ref = ref []
let open_ : t list ref = ref []
let count = ref 0

(* Gc.quick_stat's minor_words only advances at minor collections, so
   the minor part comes from Gc.minor_words, which is exact. *)
let allocated (g : Gc.stat) = Gc.minor_words () +. g.major_words -. g.promoted_words

let duration_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

let self_ns s = duration_ns s -. s.child_ns

(* [run ?gc name f] — [f ()] inside a span named [name]. *)
let run ?(gc = true) name f =
  let g0 = if gc then Some (Gc.quick_stat ()) else None in
  let a0 = match g0 with Some g -> allocated g | None -> 0.0 in
  let parent = match !open_ with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = !count; parent; name; t0 = Clock.now (); t1 = 0L; child_ns = 0.0; gc;
      alloc_w = 0.0; minor = 0; major = 0 }
  in
  incr count;
  open_ := s :: !open_;
  let close () =
    s.t1 <- Clock.now ();
    open_ := List.tl !open_;
    (match !open_ with p :: _ -> p.child_ns <- p.child_ns +. duration_ns s | [] -> ());
    (match g0 with
    | Some g0 ->
      let g1 = Gc.quick_stat () in
      s.alloc_w <- allocated g1 -. a0;
      s.minor <- g1.minor_collections - g0.minor_collections;
      s.major <- g1.major_collections - g0.major_collections
    | None -> ());
    log := s :: !log
  in
  Fun.protect ~finally:close f

let rename s name = s.name <- name

(* The span that closed last (to rename once its outcome is known). *)
let last () = List.hd !log

let spans () = List.rev !log

let named name = List.filter (fun s -> s.name = name) (spans ())

(* Write every span as one tab-separated line. *)
let dump path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "id\tparent\tname\tstart_ns\tduration_ns\tself_ns\talloc_words\tminor\tmajor\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%s\t%Ld\t%.0f\t%.0f\t%.0f\t%d\t%d\n" s.id s.parent s.name s.t0
            (duration_ns s) (self_ns s) s.alloc_w s.minor s.major)
        (spans ()))
