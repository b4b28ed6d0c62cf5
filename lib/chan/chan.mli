(** Reliable-FIFO channel state machines: the one sequence-number /
    cumulative-ack / retransmit-with-backoff implementation behind the
    paper's Section II-A channel assumption. Pure state, no clock, no
    I/O: the caller owns the timers and the wire and passes time in.
    Two drivers feed it — {!Sim.Transport} (virtual time, engine
    timers, a lossy [Sim.Link]) and [Dist.Net] (wall-clock time, a
    polling thread, stream sockets under one lock per peer). One [tx]
    per outgoing channel, one [rx] per incoming channel.

    {e Reconnection}: a stream can die and come back, and either end
    can be a whole new process. {!tx_reconnect} re-synchronizes the
    sender after a handshake — trimming what the peer already delivered
    and, when the peer is a fresh incarnation (its volatile [rx] state
    is gone), renumbering the survivors from zero. Between stable
    incarnations this gives exactly-once in-order delivery; across a
    crash it degrades to at-least-once, which the protocol absorbs
    (collectors dedup by sender, the kernel is idempotent, and the lost
    messages a dead incarnation had acked are recovered by the quorum
    state pull). *)

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

val tx_reconnect :
  'm tx -> now:float -> peer_rebooted:bool -> rx_expected:int ->
  (int * 'm) list
(** Post-handshake resync: drop unacked frames the peer already
    delivered ([seq < rx_expected]); if [peer_rebooted], renumber the
    survivors from 0 (the new incarnation expects a fresh channel).
    Returns every surviving frame for immediate retransmission, RTO
    reset and re-armed. *)

val tx_unacked : 'm tx -> int
val tx_next_seq : 'm tx -> int

val tx_rto : 'm tx -> float
(** The current retransmission timeout: the timer armed by the last
    {!tx_send} / {!tx_ack} / {!tx_due} / {!tx_reconnect} expires this
    long after the [now] that call was given. *)

type 'm rx

val rx : unit -> 'm rx

val rx_data : 'm rx -> seq:int -> 'm -> 'm list
(** One incoming data frame: returns the messages that just became
    deliverable, in order (empty on duplicates and gaps). The caller
    acks cumulatively with {!rx_expected}; when is its policy, but a
    duplicate must be re-acked, since the lost packet may have been
    the ack. {!Sim.Transport} acks after every data frame. [Dist.Net]
    acks at once on a duplicate or a gap, otherwise every 64 frames or
    20 ms. *)

val rx_expected : 'm rx -> int

val rx_buffered : 'm rx -> int
(** Frames held out of order, waiting for a gap to fill. *)

val rx_reset : 'm rx -> unit
(** The peer is a fresh incarnation: expect a channel renumbered
    from 0. *)

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
