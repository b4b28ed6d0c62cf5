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

let pp_endpoint ppf ep = Format.pp_print_string ppf (endpoint_to_string ep)

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

let connect ep =
  let sock = Unix.socket (domain ep) Unix.SOCK_STREAM 0 in
  match
    Unix.connect sock (sockaddr ep);
    no_delay ep sock
  with
  | () -> Ok sock
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

let dial ?(backoff0 = 0.01) ?(backoff_max = 0.5) ~stop ep =
  let rec go pause =
    if stop () then None
    else
      match connect ep with
      | Ok fd -> Some fd
      | Error _ ->
          Thread.delay pause;
          go (Float.min (pause *. 2.) backoff_max)
  in
  go backoff0

let write_some fd s off =
  let len = String.length s in
  let rec go off =
    if off >= len then `Done
    else
      match Unix.single_write_substring fd s off (len - off) with
      | 0 -> `Dead
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Blocked off
      | exception Unix.Unix_error _ -> `Dead
  in
  go off

(* On a blocking socket [write_some] only stops when done or dead. *)
let write_frame fd frame = write_some fd (Wire.encode frame) 0 = `Done

(* [select] on a closed or shut-down socket returns at once (readable /
   writable with an error pending), so neither wait outlives its
   connection; the bound on the write wait is only a safety net. *)
let wait_writable fd =
  try ignore (Unix.select [] [ fd ] [] 0.1) with Unix.Unix_error _ -> ()

let wait_readable fd =
  match Unix.select [ fd ] [] [] (-1.) with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Buffered reader: accumulate into [buf], decode from [lo]; compact
   when the valid region ends (cheap — frames are small). *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;  (* first undecoded byte *)
  mutable hi : int;  (* end of valid data *)
  mutable nonblocking : bool;
      (* EAGAIN means "wait for bytes", not a receive timeout *)
}

let reader fd =
  { fd; buf = Bytes.create 8192; lo = 0; hi = 0; nonblocking = false }

let set_nonblocking r =
  Unix.set_nonblock r.fd;
  r.nonblocking <- true

let refill r =
  if r.lo > 0 then begin
    Bytes.blit r.buf r.lo r.buf 0 (r.hi - r.lo);
    r.hi <- r.hi - r.lo;
    r.lo <- 0
  end;
  if r.hi = Bytes.length r.buf then
    r.buf <- Bytes.extend r.buf 0 (Bytes.length r.buf);
  match Unix.read r.fd r.buf r.hi (Bytes.length r.buf - r.hi) with
  | 0 -> false
  | n ->
      r.hi <- r.hi + n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    when r.nonblocking ->
      wait_readable r.fd
  | exception Unix.Unix_error _ -> false

let rec read_frame r =
  (* Decoding from a string copy of the window keeps Wire pure; frames
     are small and this path is not the ops hot loop (one copy per
     refill round, not per frame, would be an easy upgrade). *)
  let window = Bytes.sub_string r.buf r.lo (r.hi - r.lo) in
  match Wire.decode window ~pos:0 with
  | Ok (frame, consumed) ->
      r.lo <- r.lo + consumed;
      Ok frame
  | Error Wire.Truncated ->
      if refill r then read_frame r else Error `Eof
  | Error e -> Error (`Err e)
