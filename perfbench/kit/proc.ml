(* Driving a `confcase serve` daemon in pipe mode over raw descriptors. *)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  acc : Buffer.t;
}

let reader fd = { fd; buf = Bytes.create 65536; pos = 0; len = 0; acc = Buffer.create 256 }

(* The next complete line if one is buffered; a partial line is kept. *)
let take_line r =
  let rec scan j = if j >= r.len then -1 else if Bytes.unsafe_get r.buf j = '\n' then j else scan (j + 1) in
  match scan r.pos with
  | -1 ->
    Buffer.add_subbytes r.acc r.buf r.pos (r.len - r.pos);
    r.pos <- r.len;
    None
  | j ->
    Buffer.add_subbytes r.acc r.buf r.pos (j - r.pos);
    r.pos <- j + 1;
    let s = Buffer.contents r.acc in
    Buffer.clear r.acc;
    Some s

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

let fill r =
  let n = restart (fun () -> Unix.read r.fd r.buf 0 (Bytes.length r.buf)) in
  if n = 0 then raise End_of_file;
  r.pos <- 0;
  r.len <- n

let rec read_line r = match take_line r with Some s -> s | None -> fill r; read_line r

type daemon = { pid : int; out : Unix.file_descr; rd : reader; spawned : int64 }

let spawn bin =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let spawned = Clock.now () in
  let pid = Unix.create_process bin [| bin; "serve" |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  Unix.set_nonblock in_w;
  { pid; out = in_w; rd = reader out_r; spawned }

let write_all fd s =
  let n = String.length s in
  let rec go o =
    if o < n then
      match Unix.write_substring fd s o (n - o) with
      | k -> go (o + k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ignore (restart (fun () -> Unix.select [] [ fd ] [] (-1.0)));
        go o
  in
  go 0

(* Peak resident set of a live process, from the kernel's high-water mark. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Ask the daemon to exit and reap it; true when it acknowledged and
   exited with status 0. *)
let stop d =
  write_all d.out "{\"op\":\"shutdown\"}\n";
  let acked = match read_line d.rd with l -> Mix.contains l "\"ok\":true" | exception End_of_file -> false in
  Unix.close d.out;
  Unix.close d.rd.fd;
  match restart (fun () -> Unix.waitpid [] d.pid) with
  | _, Unix.WEXITED 0 -> acked
  | _ -> false

(* [exchange d reqs ~on_response] writes every request line while reading
   the responses as they arrive, so neither pipe can fill up and stall
   the other side.  A request's send time is when the write covering its
   last byte returned; its latency ends when its response line is read. *)
let exchange d (reqs : Mix.request array) ~on_response =
  let n = Array.length reqs in
  let payload = String.concat "" (Array.to_list (Array.map (fun (r : Mix.request) -> r.line ^ "\n") reqs)) in
  let total = String.length payload in
  let ends = Array.make n 0 in
  let acc = ref 0 in
  Array.iteri (fun k (r : Mix.request) -> acc := !acc + String.length r.line + 1; ends.(k) <- !acc) reqs;
  let sent = Array.make n 0L in
  let written = ref 0 and marked = ref 0 and got = ref 0 in
  while !got < n do
    match take_line d.rd with
    | Some l ->
      on_response reqs.(!got) l (Clock.ns_since sent.(!got));
      incr got
    | None ->
      let wfds = if !written < total then [ d.out ] else [] in
      let rfds, wr, _ =
        try Unix.select [ d.rd.fd ] wfds [] (-1.0)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if wr <> [] then begin
        (match Unix.write_substring d.out payload !written (total - !written) with
        | k -> written := !written + k
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
        let t = Clock.now () in
        while !marked < n && ends.(!marked) <= !written do
          sent.(!marked) <- t;
          incr marked
        done
      end;
      if rfds <> [] then fill d.rd
  done

(* Closed loop: keep [inflight] requests outstanding, as that many
   callers would, each sending its next request when its reply arrives.
   [next] returns None to stop issuing. *)
let closed_loop d ~inflight ~next ~on_response =
  let q = Queue.create () in
  let rec top_up () =
    if Queue.length q < inflight then
      match next () with
      | Some (r : Mix.request) ->
        let t0 = Clock.now () in
        write_all d.out (r.line ^ "\n");
        Queue.push (r, t0) q;
        top_up ()
      | None -> ()
  in
  top_up ();
  while not (Queue.is_empty q) do
    let l = read_line d.rd in
    let r, t0 = Queue.pop q in
    on_response r l (Clock.ns_since t0);
    top_up ()
  done
