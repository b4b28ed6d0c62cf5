(** Socket plumbing under the dist backend: endpoints, listeners,
    connection attempts, and framed reads/writes over a file
    descriptor.

    Endpoints are unix-domain sockets by default (no ports to collide
    in CI; the supervisor puts them in its run directory) with TCP as
    the off-box option; both print/parse as ["unix:PATH"] /
    ["tcp:HOST:PORT"] so one [--peers] flag describes a deployment. *)

type endpoint = Unix_ep of string | Tcp_ep of string * int

val endpoint_to_string : endpoint -> string
val endpoint_of_string : string -> (endpoint, string) result

val listen : endpoint -> Unix.file_descr
(** Bind + listen (unlinking a stale unix socket file first).
    @raise Unix.Unix_error *)

val connect :
  ?nonblocking:bool -> endpoint -> (Unix.file_descr, exn) result
(** One connection attempt. TCP sockets get [TCP_NODELAY]: frames are
    small and acks coalesced, so Nagle's algorithm would hold a frame
    until the peer's delayed TCP ACK. With [~nonblocking:true] the
    socket is [O_NONBLOCK] and may still be connecting
    ([EINPROGRESS]): it turns writable once the attempt is over, and
    [Unix.getsockopt_error] then tells how it went. *)

val accept : endpoint -> Unix.file_descr -> Unix.file_descr
(** Accept one connection on a {!listen}ing socket for [endpoint]
    ([TCP_NODELAY] on TCP, as {!connect}). @raise Unix.Unix_error *)

val write_frame : Unix.file_descr -> Wire.frame -> bool
(** Encode and write the whole frame on a blocking socket (looping
    over short writes). [false] on any write error — the connection is
    dead. *)

type reader
(** Buffered frame decoder over one fd. Single-consumer. Each frame is
    decoded in place ({!Wire.decode_bytes}) once {!Wire.frame_length}
    says all of it has arrived. *)

val reader : Unix.file_descr -> reader

val fill : reader -> [ `Read | `Blocked | `Eof ]
(** One [read] into the buffer. [`Blocked] is [EAGAIN]: no bytes yet
    on an [O_NONBLOCK] socket, or an [SO_RCVTIMEO] timeout on a
    blocking one. [`Eof] on a clean close or a read error. *)

val ready : reader -> bool
(** {!next} would not return [Ok None]: a whole frame, or bytes it
    rejects, wait in the buffer. *)

val next : reader -> (Wire.frame option, Wire.error) result
(** Decode the next frame if it is buffered whole; [Ok None] if more
    bytes are needed. An [Error] leaves the stream unrecoverable. *)

val read_frame : reader -> (Wire.frame, [ `Eof | `Err of Wire.error ]) result
(** {!next}, {!fill}ing until a frame is whole. [`Eof] on a clean
    close, a read error or a receive timeout; [`Err] on undecodable
    bytes (the stream is unrecoverable after either — close it). *)
