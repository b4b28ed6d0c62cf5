(** Reliable-FIFO channel state machines: the one sequence-number /
    cumulative-ack / retransmit-with-backoff implementation behind the
    paper's Section II-A channel assumption. Pure state, no clock, no
    I/O: the caller owns the timers and the wire and passes time in.
    Two drivers feed it — {!Sim.Transport} (virtual time, engine
    timers, a lossy [Sim.Link]) and [Dist.Net] (wall-clock time, one
    event loop over stream sockets). One [tx] per outgoing channel, one
    [rx] per incoming channel.

    {e One re-delivery rule.} Between two incarnations a channel is
    exactly-once and in order, across reconnects too ({!tx_reconnect}).
    A message to a crashed process is lost, as in the paper's model:
    when the peer is a new incarnation, both drivers call {!tx_fence}
    and {!rx_reset}, and the new incarnation's quorum state pull
    recovers what was lost. *)

type 'm tx

val tx : ?rto0:float -> ?rto_max:float -> unit -> 'm tx
(** Defaults: 0.1 s initial retransmission timeout, doubling to 2 s —
    loopback/LAN numbers. *)

val tx_send : 'm tx -> now:float -> 'm -> int
(** Assign the next sequence number, queue as unacked, arm the timer if
    idle. Returns the sequence number to put on the wire. *)

val tx_ack : 'm tx -> now:float -> upto:int -> bool
(** Cumulative ack: drop every unacked [seq < upto]. True if anything
    was dropped (progress — the RTO resets). *)

val tx_due : 'm tx -> now:float -> (int * 'm) list
(** Frames to retransmit now ([[]] if the timer has not expired or
    nothing is unacked). A non-empty result backs the RTO off (doubling
    up to the cap) and re-arms. *)

val tx_reconnect : 'm tx -> now:float -> rx_expected:int -> (int * 'm) list
(** Post-handshake resync with the same incarnation: drop unacked
    frames the peer already delivered ([seq < rx_expected]) and return
    the rest for immediate retransmission, RTO reset and re-armed. *)

val tx_fence : 'm tx -> unit
(** The peer is a new incarnation: forget every unacked frame and
    number from 0, as a fresh {!tx}. *)

val tx_unacked : 'm tx -> int
val tx_next_seq : 'm tx -> int

val tx_rto : 'm tx -> float
(** The current retransmission timeout: the timer armed by the last
    {!tx_send} / {!tx_ack} / {!tx_due} / {!tx_reconnect} expires this
    long after the [now] that call was given. *)

type 'm rx

val rx : ack_every:int -> unit -> 'm rx
(** The ack policy: an ack is owed at once on a duplicate or a gap (the
    sender is retransmitting), else once [ack_every] in-order frames
    are unacked, else at the driver's next {!rx_tick}. [Sim.Transport]
    passes 1, [Dist.Net] 64. *)

val rx_data : 'm rx -> seq:int -> 'm -> 'm list
(** One incoming data frame: the messages that just became deliverable,
    in order (empty on duplicates and gaps). *)

val rx_tick : 'm rx -> unit
(** Owe an ack if anything was delivered since the last one. *)

val rx_ack_due : 'm rx -> bool
(** An ack is owed. It stays owed, as one cumulative ack, until
    {!rx_ack}. *)

val rx_ack : 'm rx -> int
(** Take the owed ack: the [upto] to send (every [seq < upto] is
    delivered). A handshake's [rx_expected] is taken this way too. *)

val rx_expected : 'm rx -> int

val rx_buffered : 'm rx -> int
(** Frames held out of order, waiting for a gap to fill. *)

val rx_reset : 'm rx -> unit
(** The peer is a new incarnation: expect a channel numbered from 0,
    the counterpart of {!tx_fence}. *)

(** {2 Link faults}

    The one fault vocabulary for the wire underneath a channel. Two
    interpreters read it: [Sim.Link] turns each rate into a virtual-time
    choice point per packet, and [Dist.Net] into a sender-side verdict
    per data frame. *)

type faults = {
  drop : float;  (** probability a transmission is lost *)
  dup : float;  (** probability a transmission goes out twice *)
  reorder : float;
      (** probability a transmission is held back so later ones can
          overtake it *)
}

val no_faults : faults

val validate : faults -> (faults, string) result
(** [Ok] iff every rate lies in [[0, 1)] ([nan] does not). *)

val rate_of_string : string -> (float, string) result
(** Parse one rate and validate it. The inverse of {!string_of_rate}. *)

val string_of_rate : float -> string
(** The shortest decimal that reads back as the same float. *)
