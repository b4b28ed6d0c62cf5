(** Socket plumbing under the dist backend: endpoints, listeners,
    dialing with exponential backoff, and framed reads/writes over a
    file descriptor.

    Endpoints are unix-domain sockets by default (no ports to collide
    in CI; the supervisor puts them in its run directory) with TCP as
    the off-box option; both print/parse as ["unix:PATH"] /
    ["tcp:HOST:PORT"] so one [--peers] flag describes a deployment. *)

type endpoint = Unix_ep of string | Tcp_ep of string * int

val endpoint_to_string : endpoint -> string
val endpoint_of_string : string -> (endpoint, string) result
val pp_endpoint : Format.formatter -> endpoint -> unit

val listen : endpoint -> Unix.file_descr
(** Bind + listen (unlinking a stale unix socket file first).
    @raise Unix.Unix_error *)

val connect : endpoint -> (Unix.file_descr, exn) result
(** One connection attempt. TCP sockets get [TCP_NODELAY]: frames are
    small and acks coalesced, so Nagle's algorithm would hold a frame
    until the peer's delayed TCP ACK. *)

val accept : endpoint -> Unix.file_descr -> Unix.file_descr
(** Accept one connection on a {!listen}ing socket for [endpoint]
    ([TCP_NODELAY] on TCP, as {!connect}). @raise Unix.Unix_error *)

val dial :
  ?backoff0:float ->
  ?backoff_max:float ->
  stop:(unit -> bool) ->
  endpoint ->
  Unix.file_descr option
(** Retry {!connect} with exponential backoff (default 10 ms doubling
    to 500 ms) until it succeeds or [stop ()] turns true — the
    reconnect loop's engine. [None] only when stopped. *)

val write_frame : Unix.file_descr -> Wire.frame -> bool
(** Encode and write the whole frame on a blocking socket (looping
    over short writes). [false] on any write error — the connection is
    dead. *)

val write_some :
  Unix.file_descr -> string -> int -> [ `Done | `Blocked of int | `Dead ]
(** Write [s] from offset [off] on an [O_NONBLOCK] socket until it is
    all out ([`Done]), the socket buffer is full ([`Blocked off'], with
    [s] written up to [off']), or the connection is dead. *)

val wait_writable : Unix.file_descr -> unit
(** Block until [fd] may take more bytes, it failed, or 0.1 s passed. *)

type reader
(** Buffered frame reader over one fd. Single-consumer. *)

val reader : Unix.file_descr -> reader

val set_nonblocking : reader -> unit
(** Put the reader's socket in [O_NONBLOCK] mode (writers to it then
    use {!write_some}). The reader waits for readability on [EAGAIN];
    on a blocking socket [EAGAIN] is a [SO_RCVTIMEO] timeout and reads
    as [`Eof]. *)

val read_frame : reader -> (Wire.frame, [ `Eof | `Err of Wire.error ]) result
(** Block until one whole frame is buffered and decode it. [`Eof] on a
    clean close or a read error; [`Err] on undecodable bytes (the
    stream is unrecoverable after either — close it). *)
