module Parallel = Numerics.Parallel

type config = {
  queue_bound : int;
  batch : int;
  retry_after_ms : int;
  pool : Parallel.pool option;
}

let env_int name default =
  match Sys.getenv_opt name with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> default)
  | None -> default

let config ?pool () =
  {
    queue_bound = env_int "CONFCASE_SERVE_QUEUE" 1024;
    batch = env_int "CONFCASE_SERVE_BATCH" 64;
    retry_after_ms = env_int "CONFCASE_SERVE_RETRY_MS" 50;
    pool;
  }

(* --- batch execution ---------------------------------------------------------- *)

(* Execute a run of groupable requests [lo, hi): partition by group key
   (one graph / belief / file per group), run groups as pool chunks.
   Each group is serial in arrival order; groups are disjoint state, so
   the only shared mutable structure is the engine's mutex-guarded memo.
   Writes into [out] target distinct indices. *)
let run_grouped config eng parseds out lo hi =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  for k = lo to hi - 1 do
    let key =
      match Engine.group_key parseds.(k) with
      | Some key -> key
      | None -> assert false
    in
    (match Hashtbl.find_opt tbl key with
    | None ->
      order := key :: !order;
      Hashtbl.add tbl key [ k ]
    | Some ks -> Hashtbl.replace tbl key (k :: ks))
  done;
  let groups =
    List.rev_map
      (fun key -> List.rev (Hashtbl.find tbl key))
      !order
    |> Array.of_list
  in
  let run_group g =
    List.iter (fun k -> out.(k) <- Engine.execute eng parseds.(k)) g
  in
  match config.pool with
  | Some pool when Array.length groups > 1 ->
    ignore
      (Parallel.map_chunks ~pool ~chunks:(Array.length groups) (fun c ->
           run_group groups.(c)))
  | _ -> Array.iter run_group groups

(* Responses in arrival order; barrier requests run alone between
   grouped runs. *)
let execute_batch config eng parseds =
  let n = Array.length parseds in
  let out = Array.make n "" in
  let i = ref 0 in
  while !i < n do
    match Engine.group_key parseds.(!i) with
    | None ->
      out.(!i) <- Engine.execute eng parseds.(!i);
      incr i
    | Some _ ->
      let j = ref !i in
      while !j < n && Engine.group_key parseds.(!j) <> None do incr j done;
      run_grouped config eng parseds out !i !j;
      i := !j
  done;
  out

(* --- line-framed IO over raw descriptors -------------------------------------- *)

(* Framing: lines end at '\n' and nothing else.  Each read is scanned
   once, from where the previous one stopped: the bytes of a line that
   spans reads wait in [partial], so a line of N bytes costs O(N) however
   many reads it takes. *)
type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;  (* bytes after the last complete line *)
  lines : string Queue.t;  (* complete lines, FIFO *)
  mutable eof : bool;
}

let reader fd =
  {
    fd;
    chunk = Bytes.create 65536;
    partial = Buffer.create 256;
    lines = Queue.create ();
    eof = false;
  }

(* The bytes in [partial] followed by [chunk.[pos, pos + len)], as one
   line; [partial] is emptied. *)
let complete r pos len =
  let line =
    if Buffer.length r.partial = 0 then Bytes.sub_string r.chunk pos len
    else begin
      Buffer.add_subbytes r.partial r.chunk pos len;
      let l = Buffer.contents r.partial in
      Buffer.reset r.partial;
      l
    end
  in
  Queue.push line r.lines

let rec fill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> r.eof <- true
  | n ->
    let start = ref 0 in
    for j = 0 to n - 1 do
      if Bytes.unsafe_get r.chunk j = '\n' then begin
        complete r !start (j - !start);
        start := j + 1
      end
    done;
    Buffer.add_subbytes r.partial r.chunk !start (n - !start)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill r

let take_line r = Queue.take_opt r.lines

let readable fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* Blocking: the next line, or None at end-of-input.  A final unterminated
   line before EOF still counts. *)
let rec next_line r =
  match take_line r with
  | Some l -> Some l
  | None ->
    if r.eof then
      if Buffer.length r.partial > 0 then begin
        let l = Buffer.contents r.partial in
        Buffer.reset r.partial;
        Some l
      end
      else None
    else begin
      fill r;
      next_line r
    end

(* Nonblocking: a further line only if already buffered or immediately
   readable; never waits, so batching adds no latency to a lone request. *)
let rec next_line_nowait r =
  match take_line r with
  | Some l -> Some l
  | None ->
    if r.eof then None
    else if readable r.fd 0.0 then begin
      fill r;
      if r.eof then None else next_line_nowait r
    end
    else None

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    match Unix.write_substring fd s !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* --- pipe mode ---------------------------------------------------------------- *)

let run_pipe config eng ~input ~output =
  let r = reader input in
  let stop = ref false in
  while not !stop do
    match next_line r with
    | None -> stop := true
    | Some first ->
      let acc = ref [ first ] in
      let count = ref 1 in
      let draining = ref true in
      while !draining && !count < config.batch do
        match next_line_nowait r with
        | Some l ->
          acc := l :: !acc;
          incr count
        | None -> draining := false
      done;
      let lines = Array.of_list (List.rev !acc) in
      let parseds = Array.map (Engine.parse eng) lines in
      let responses = execute_batch config eng parseds in
      let size =
        Array.fold_left (fun acc r -> acc + String.length r + 1) 0 responses
      in
      let out = Bytes.create size in
      let pos = ref 0 in
      Array.iter
        (fun resp ->
          let len = String.length resp in
          Bytes.blit_string resp 0 out !pos len;
          Bytes.set out (!pos + len) '\n';
          pos := !pos + len + 1)
        responses;
      write_all output (Bytes.unsafe_to_string out);
      if Array.exists Engine.is_shutdown parseds then stop := true
  done

(* --- socket mode -------------------------------------------------------------- *)

type addr = Unix_path of string | Tcp of string * int

type conn = { cfd : Unix.file_descr; crd : reader; mutable closed : bool }

let close_conn conn =
  if not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.cfd with Unix.Unix_error _ -> ()
  end

let send conn s =
  if not conn.closed then
    try write_all conn.cfd s
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      close_conn conn

let shed_response config =
  Protocol.print
    (Protocol.Obj
       [
         ("ok", Protocol.Bool false);
         ("error", Protocol.Str "overloaded");
         ( "retry_after_ms",
           Protocol.Num (float_of_int config.retry_after_ms) );
       ])
  ^ "\n"

let bind_listen addr =
  match addr with
  | Unix_path path ->
    if Sys.file_exists path then Sys.remove path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, Some path)
  | Tcp (host, port) ->
    let inet =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 64;
    (fd, None)

let run_socket config eng addr =
  (* A peer vanishing mid-write must not kill the daemon. *)
  let previous_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  let lfd, unlink_path = bind_listen addr in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let pending : (conn * string) Queue.t = Queue.create () in
  let stop = ref false in
  (try
     while not !stop do
       let fds = lfd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
       let timeout = if Queue.is_empty pending then -1.0 else 0.0 in
       let ready, _, _ =
         try Unix.select fds [] [] timeout
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       List.iter
         (fun fd ->
           if fd = lfd then begin
             match Unix.accept lfd with
             | cfd, _ -> Hashtbl.replace conns cfd { cfd; crd = reader cfd; closed = false }
             | exception Unix.Unix_error _ -> ()
           end
           else
             match Hashtbl.find_opt conns fd with
             | None -> ()
             | Some conn -> (
               (match fill conn.crd with
               | () -> ()
               | exception Unix.Unix_error _ -> conn.crd.eof <- true);
               let draining = ref true in
               while !draining do
                 match take_line conn.crd with
                 | None -> draining := false
                 | Some line ->
                   if Queue.length pending >= config.queue_bound then
                     send conn (shed_response config)
                   else Queue.push (conn, line) pending
               done;
               if conn.crd.eof then begin
                 close_conn conn;
                 Hashtbl.remove conns fd
               end))
         ready;
       if not (Queue.is_empty pending) then begin
         let take = min config.batch (Queue.length pending) in
         let items = Array.init take (fun _ -> Queue.pop pending) in
         let parseds =
           Array.map (fun (_, line) -> Engine.parse eng line) items
         in
         let responses = execute_batch config eng parseds in
         Array.iteri
           (fun k resp ->
             let conn, _ = items.(k) in
             send conn (resp ^ "\n"))
           responses;
         if Array.exists Engine.is_shutdown parseds then stop := true
       end
     done
   with exn ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     raise exn);
  Hashtbl.iter (fun _ conn -> close_conn conn) conns;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (match unlink_path with
  | Some path -> ( try Sys.remove path with Sys_error _ -> ())
  | None -> ());
  match previous_sigpipe with
  | Some behaviour -> ( try Sys.set_signal Sys.sigpipe behaviour with Invalid_argument _ -> ())
  | None -> ()
