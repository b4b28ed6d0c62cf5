type endpoint = Unix_ep of string | Tcp_ep of string * int

let endpoint_to_string = function
  | Unix_ep path -> "unix:" ^ path
  | Tcp_ep (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let endpoint_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if path = "" then Error "unix endpoint needs a path" else Ok (Unix_ep path)
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | None -> Error "tcp endpoint is tcp:HOST:PORT"
      | Some j -> (
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 ->
              Ok (Tcp_ep ((if host = "" then "127.0.0.1" else host), p))
          | _ -> Error "tcp endpoint has a bad port"))
  | _ -> Error (Printf.sprintf "bad endpoint %S (unix:PATH or tcp:HOST:PORT)" s)

let sockaddr = function
  | Unix_ep path -> Unix.ADDR_UNIX path
  | Tcp_ep (host, port) ->
      Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let domain = function Unix_ep _ -> Unix.PF_UNIX | Tcp_ep _ -> Unix.PF_INET

let listen ep =
  (match ep with
  | Unix_ep path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp_ep _ -> ());
  let sock = Unix.socket (domain ep) Unix.SOCK_STREAM 0 in
  (try
     (match ep with
     | Tcp_ep _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true
     | Unix_ep _ -> ());
     Unix.bind sock (sockaddr ep);
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  sock

(* Frames are small and latency-bound, and acks are coalesced, so
   Nagle's algorithm would hold each frame until the peer's delayed TCP
   ACK came back (tens of milliseconds). *)
let no_delay ep fd =
  match ep with
  | Tcp_ep _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
  | Unix_ep _ -> ()

let connect ?(nonblocking = false) ep =
  let sock = Unix.socket (domain ep) Unix.SOCK_STREAM 0 in
  match
    if nonblocking then Unix.set_nonblock sock;
    no_delay ep sock;
    Unix.connect sock (sockaddr ep)
  with
  | () -> Ok sock
  | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) when nonblocking ->
      Ok sock
  | exception e ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error e

let accept ep listener =
  let fd, _ = Unix.accept listener in
  (try no_delay ep fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let write_frame fd frame =
  let s = Wire.encode frame in
  let rec go off =
    off >= String.length s
    ||
    match Unix.single_write_substring fd s off (String.length s - off) with
    | 0 -> false
    | n -> go (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    | exception Unix.Unix_error _ -> false
  in
  go 0

(* Buffered decoder: bytes accumulate in [buf] from [lo] to [hi]. A
   frame is decoded where it lies, over the length its header gives,
   once all of it has arrived; the unread tail moves to the front only
   when the buffer is full, and the buffer doubles only for a frame
   larger than itself. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;  (* first undecoded byte *)
  mutable hi : int;  (* end of valid data *)
}

let reader fd = { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }

let fill r =
  if r.lo = r.hi then begin
    r.lo <- 0;
    r.hi <- 0
  end
  else if r.hi = Bytes.length r.buf then begin
    let live = r.hi - r.lo in
    let b = if r.lo = 0 then Bytes.create (2 * live) else r.buf in
    Bytes.blit r.buf r.lo b 0 live;
    r.buf <- b;
    r.lo <- 0;
    r.hi <- live
  end;
  match Unix.read r.fd r.buf r.hi (Bytes.length r.buf - r.hi) with
  | 0 -> `Eof
  | n ->
      r.hi <- r.hi + n;
      `Read
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Read
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Blocked
  | exception Unix.Unix_error _ -> `Eof

let ready r =
  match Wire.frame_length r.buf ~pos:r.lo ~len:(r.hi - r.lo) with
  | Ok len -> len <= r.hi - r.lo
  | Error Wire.Truncated -> false
  | Error _ -> true

(* [decode_bytes] parses no further than the frame's own length. *)
let next r =
  if not (ready r) then Ok None
  else
    match Wire.decode_bytes r.buf ~pos:r.lo ~len:(r.hi - r.lo) with
    | Ok (f, stop) ->
        r.lo <- stop;
        Ok (Some f)
    | Error e -> Error e

let rec read_frame r =
  match next r with
  | Ok (Some f) -> Ok f
  | Error e -> Error (`Err e)
  | Ok None -> (
      match fill r with `Read -> read_frame r | `Blocked | `Eof -> Error `Eof)
