(** Lossy, duplicating, reordering, partitionable point-to-point links —
    the {e real} network substrate underneath the paper's reliable-FIFO
    channel assumption (Section II-A).

    A link never invents packets, but it may lose a packet, deliver it
    twice, or deliver it out of order; while a partition is installed,
    packets crossing group boundaries are cut. {!Transport} restores the
    reliable-FIFO contract on top of this layer (between live nodes,
    given that partitions eventually heal); {!Network} selects between
    the ideal channels and this two-layer stack.

    With {!no_faults} and no partition the link behaves exactly like the
    ideal network's wire: same delay model, same per-channel FIFO clamp,
    and no RNG draws, so the event schedule is identical. Loopback
    ([src = dst]) is immune to faults and partitions. *)

type faults = Chan.faults
(** Each rate is i.i.d. per transmission, drawn from a stream split off
    the engine RNG at creation: [drop] loses the packet; [dup] transmits
    it twice; [reorder] skips the FIFO clamp and takes a fresh delay
    plus jitter in [\[0, D)], allowing overtakes. *)

val no_faults : faults

type 'p t

val create :
  ?faults:faults -> ?metrics:Obs.Metrics.t -> Engine.t -> n:int ->
  delay:Delay.t -> 'p t
(** [n]-node link fabric. Default faults: {!no_faults}. Wire counters
    register in [metrics] (fresh registry if omitted) under
    ["link.*"]; wire-level instants are emitted to the engine's trace
    when one is attached.
    @raise Invalid_argument if a probability lies outside [[0, 1)]. *)

val engine : _ t -> Engine.t
val size : _ t -> int
val delay_bound : _ t -> float

val metrics : _ t -> Obs.Metrics.t
(** The registry holding this link's ["link.*"] counters. *)

val set_handler : 'p t -> int -> (src:int -> 'p -> unit) -> unit
val send : 'p t -> src:int -> dst:int -> 'p -> unit

val set_faults : _ t -> faults -> unit
(** Swap the fault rates at any virtual time (chaos schedules ramp loss
    up and down mid-run). *)

val faults : _ t -> faults

val partition : _ t -> int list list -> unit
(** Install a partition: nodes in different groups cannot exchange
    packets (crossing packets are {e cut} at send time; packets already
    in flight still arrive). Nodes not listed in any group form one
    implicit group of their own. Replaces any previous partition.
    @raise Invalid_argument on out-of-range node ids. *)

val heal : _ t -> unit
(** Remove the partition. In-flight retransmission timers above this
    layer then re-establish connectivity. *)

val partitioned : _ t -> bool
val reachable : _ t -> src:int -> dst:int -> bool

(** Wire-level observation points (packet granularity, below the
    transport's logical messages). *)
type 'p event =
  | Wire_sent of { src : int; dst : int; at : float; packet : 'p }
  | Wire_delivered of { src : int; dst : int; at : float; packet : 'p }
  | Wire_lost of { src : int; dst : int; at : float; packet : 'p }
      (** eaten by the loss model *)
  | Wire_cut of { src : int; dst : int; at : float; packet : 'p }
      (** crossed a partition boundary *)

val set_tracer : 'p t -> ('p event -> unit) -> unit

val packets_sent : _ t -> int
(** Transmissions put on the wire, duplicates included. *)

val packets_delivered : _ t -> int

val packets_lost : _ t -> int

val packets_cut : _ t -> int

val packets_duplicated : _ t -> int

val packets_reordered : _ t -> int

val pp_state : Format.formatter -> _ t -> unit
(** One-line fault/partition/counter summary (watchdog diagnostics). *)
