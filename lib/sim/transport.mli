(** Reliable FIFO transport over a {!Link}: the protocol layer that turns
    the paper's Section II-A channel {e assumption} into code.

    A thin driver of the {!Chan} state machines — the same ones the
    socket backend runs. Per ordered pair [(src, dst)], payloads are
    numbered, buffered until cumulatively acknowledged, retransmitted on
    a timer with exponential backoff (capped), and delivered to the
    destination handler exactly once, in send order — restoring the
    ideal {!Network} contract between live nodes over links that lose,
    duplicate and reorder packets and across partitions that eventually
    heal. This module only turns {!Chan}'s deadlines into engine timers
    and its frames into link packets.

    Crash handling is by simulation oracle ({!kill}): a dead node neither
    transmits nor delivers, and every channel to or from it is fenced
    by {!Chan.tx_fence}, the rule [Dist.Net] runs on a new boot id, so
    the event queue can drain. {!restart} brings the node back as a new
    incarnation with fresh channels in both directions. *)

type 'm packet =
  | Data of { epoch : int; seq : int; payload : 'm }
  | Ack of { epoch : int; upto : int }
(** Wire format. [Ack upto] is cumulative: every [Data] with [seq < upto]
    was received in order. [epoch] is the channel's incarnation number
    at send time (it grows whenever either end restarts); a packet
    arriving under another epoch is discarded. *)

type 'm t

val create :
  ?faults:Link.faults ->
  ?metrics:Obs.Metrics.t ->
  Engine.t ->
  n:int ->
  delay:Delay.t ->
  'm t
(** Creates the underlying ['m packet Link.t] and installs its handlers.
    The retransmission timeout starts at [2.5 * D], above one round trip
    ([2 D]) so a zero-fault stack never retransmits, and doubles on each
    expiry up to [16 * D]. Transport counters register in [metrics]
    (fresh registry if omitted) under ["transport.*"], alongside the
    link's ["link.*"]. *)

val link : 'm t -> 'm packet Link.t
(** The underlying link, for fault/partition control and wire tracing. *)

val set_handler : 'm t -> int -> (src:int -> 'm -> unit) -> unit
(** In-order, exactly-once payload delivery for node [i]. *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Enqueue a payload on channel [(src, dst)]. No-op when either end is
    {!kill}ed. @raise Invalid_argument on [src = dst] (loopback is the
    caller's business — it needs no reliability protocol). *)

val kill : _ t -> int -> unit
(** Crash node [i]: fence every channel to or from it, so nothing
    queued for the dead incarnation reaches the next one, and cancel
    every retransmission timer touching it. Idempotent. *)

val restart : _ t -> int -> unit
(** Revive killed node [i] as a new incarnation: every peer's receiver
    from [i] is reset, and packets still in flight to or from the dead
    incarnation are discarded on arrival. Sends after the restart are
    delivered exactly once and in order, as on any channel. No-op when
    [i] is live. *)

val retransmits : _ t -> int
val acks_sent : _ t -> int

val pp_state : Format.formatter -> _ t -> unit
(** Global counters plus, for every node with in-flight state, its
    per-channel sender/receiver summary — the watchdog's diagnostic
    dump. *)
