(** The dist backend's wire format: versioned, length-prefixed,
    checksummed binary frames.

    Same round-tripping discipline as the write-ahead log
    ({!Persist.Log}): a fixed header bounds the frame before any payload
    byte is trusted, an FNV-1a checksum rejects bytes that survived
    truncation or a bit flip by accident, and the payload parser must
    consume the frame exactly — three independent ways a torn or
    corrupted frame fails to decode. Binary rather than text because
    frames cross a socket on the latency path, not a WAL meant for
    [grep].

    Layout (all multi-byte integers little-endian):

    {v
    "AW"  version:u8  payload_len:u32  fnv1a(payload):u32  payload
    v}

    The first payload byte is the frame kind; every integer after it is
    a zigzag-encoded LEB128 varint, so negative values (timestamps never
    are, but protocol values may be) cost no special casing.

    The codec is pure — encode to a [string], decode from a [string] at
    an offset — so the fuzz suite can round-trip and mutilate frames
    without a socket in sight. {!Conn} layers the fd I/O on top. *)

type msg = int Aso_core.Lattice_core.Msg.t

(** A client request against one node: the supervisor's closed-loop
    clients speak this (and only this) to the node they are pinned
    to. *)
type client_op = Op_update of int | Op_scan

type op_result = R_update_done | R_scan of int option array

type frame =
  | Hello of { src : int; boot : int }
      (** dialer's opening word on a peer connection: who I am and
          which incarnation (the [boot] id changes on every process
          start, so the acceptor can tell a reconnect from a
          restart) *)
  | Welcome of { boot : int; rx_expected : int }
      (** acceptor's reply: its own incarnation and the next in-order
          sequence number it expects from this dialer — the dialer
          drops already-delivered frames and retransmits the rest *)
  | Data of { seq : int; msg : msg }  (** one protocol message *)
  | Ack of { upto : int }
      (** cumulative: every [seq < upto] is delivered *)
  | Req of { rid : int; op : client_op }
  | Resp of { rid : int; t_inv : int; t_resp : int; result : op_result }
      (** [t_inv]/[t_resp] are the node's [CLOCK_MONOTONIC] nanoseconds
          at the protocol execution boundaries — comparable across
          processes on one machine, which is what lets the supervisor
          merge per-node stamps into one checkable history *)

val version : int
val header_len : int

val max_payload : int
(** Sanity cap on the length field (16 MiB): a corrupted length must
    not make a reader try to buffer gigabytes before the checksum gets
    a chance to reject the frame. *)

type error =
  | Bad_magic
  | Bad_version of int
  | Oversize of int
  | Truncated  (** not enough bytes for a whole frame (streaming: wait) *)
  | Bad_checksum
  | Bad_payload

val pp_error : Format.formatter -> error -> unit

val encode : frame -> string
(** Header plus payload, ready for a single write. *)

val decode : string -> pos:int -> (frame * int, error) result
(** Decode one frame starting at [pos]; on success also return the
    offset just past it. [Error Truncated] means the bytes so far are a
    valid proper prefix — a streaming reader should wait for more. *)

val frame_length : Bytes.t -> pos:int -> len:int -> (int, error) result
(** The whole length (header and payload) of the frame starting at
    [pos], judged from the [len] bytes there, as soon as its header is
    complete: a streaming reader copies out exactly that many bytes
    once they have arrived. [Error Truncated] until the header is
    whole; [Bad_magic], [Bad_version] and [Oversize] as {!decode}. *)

val checksum : string -> int
(** FNV-1a 32 (exposed for the corruption tests). *)
