(** Transport for {!Engine}: newline-delimited JSON over a stdin/stdout
    pipe or a Unix-domain/TCP socket.

    {2 Batching and concurrency}

    Requests are drained in batches of at most [batch] lines.  Within a
    batch, maximal runs of groupable requests (see {!Engine.group_key})
    are partitioned by key and the groups run concurrently over the
    domain pool ({!Numerics.Parallel.map_chunks}, one chunk per group);
    each group stays serial in arrival order, so a graph is only ever
    touched by one domain at a time.  Barrier requests (loads, stats,
    flush, shutdown, malformed lines) split the batch and run alone on
    the control thread.  Responses are written in request-arrival order
    whatever the execution interleaving.

    {2 Framing}

    A request is the bytes up to a ['\n'] (a ['\r'] before it stays in
    the line, where the JSON parser takes it for whitespace).  An empty
    line is a malformed request and gets an error response.  In pipe
    mode a final line without a ['\n'] still counts.  Each read is
    scanned once, so a line costs time linear in its length however
    many reads it spans.

    {2 Backpressure}

    Socket mode keeps one bounded pending queue across all connections
    ([queue_bound]).  A line arriving on a full queue is shed
    immediately with [{"ok":false,"error":"overloaded",
    "retry_after_ms":R}] — the queue never grows without bound.  Pipe
    mode needs no explicit shedding: at most [batch] lines are in
    flight and the OS pipe buffer blocks the writer.

    {2 Shutdown}

    Pipe mode exits on end-of-input or a [shutdown] request; socket mode
    on [shutdown] (the response is written first, then every connection
    and the listener close; a Unix-domain socket path is unlinked). *)

type config = {
  queue_bound : int;  (** Pending-request cap, socket mode.  Default 1024. *)
  batch : int;  (** Max requests drained per cycle.  Default 64. *)
  retry_after_ms : int;  (** Advisory delay in shed responses.  Default 50. *)
  pool : Numerics.Parallel.pool option;
      (** Domain pool for concurrent groups; [None] executes inline. *)
}

(** [config ?pool ()] — defaults, with [CONFCASE_SERVE_QUEUE],
    [CONFCASE_SERVE_BATCH], and [CONFCASE_SERVE_RETRY_MS] overriding the
    respective fields when set to positive integers. *)
val config : ?pool:Numerics.Parallel.pool -> unit -> config

(** [run_pipe config engine ~input ~output] — serve until end-of-input
    or [shutdown].  Raw file descriptors, not channels: batching peeks
    readiness with [select], which needs unbuffered reads. *)
val run_pipe :
  config -> Engine.t -> input:Unix.file_descr -> output:Unix.file_descr -> unit

type addr =
  | Unix_path of string  (** Unix-domain socket; stale path replaced. *)
  | Tcp of string * int  (** Host (numeric or name) and port. *)

(** [run_socket config engine addr] — bind, listen, serve until
    [shutdown]. *)
val run_socket : config -> Engine.t -> addr -> unit
