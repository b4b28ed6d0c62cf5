(** Reliable FIFO point-to-point network with fault injection.

    Channel semantics match Section II-A of the paper exactly:

    - {b Reliable}: once [send] returns, the message will be delivered to
      a live destination even if the sender crashes afterwards.
    - {b FIFO}: per ordered pair [(src, dst)], messages deliver in send
      order (delivery times are clamped to be non-decreasing and the
      event queue breaks ties by insertion order).
    - A crashed node sends nothing and its handler is never invoked
      again; in-flight messages {e to} it are dropped at delivery time.

    The network has two interchangeable substrates. {!Ideal} (the
    default) implements the contract axiomatically, as the paper assumes
    it. {!Lossy} implements it as a protocol: a {!Transport} (the
    {!Chan} machines: sequence numbers, cumulative acks, retransmission
    with exponential backoff) over a {!Link} that drops, duplicates, reorders, and partitions.
    Algorithms are substrate-oblivious; the harness selects via
    {!with_substrate} (or the [?substrate] argument). One honest
    difference: over a faulty link, a message unacknowledged at its
    sender's crash may be lost — retransmission needs a live sender —
    so reliability there reads "between live nodes, given healing
    partitions".

    Crash-during-broadcast ({!crash_during_next_broadcast}) models the
    adversary of the paper's failure-chain argument (Definition 11): a
    node that fails while executing "send to all" reaches only a chosen
    subset of destinations. *)

type substrate =
  | Ideal  (** axiomatic reliable FIFO channels (the paper's model) *)
  | Lossy of Link.faults
      (** reliable FIFO as a transport protocol over a lossy link
          created with the given fault rates *)

val with_substrate : substrate -> (unit -> 'a) -> 'a
(** [with_substrate s f] makes [s] the default substrate for every
    {!create} during [f] — the hook the harness uses to move an
    unmodified algorithm onto the lossy stack. Restores the previous
    default on exit (also on exceptions). *)

type 'm t

val create : ?substrate:substrate -> Engine.t -> n:int -> delay:Delay.t -> 'm t
(** [n]-node network. All nodes start live with a no-op handler.
    [substrate] defaults to the ambient one ({!Ideal} unless inside
    {!with_substrate}). *)

val engine : _ t -> Engine.t
val size : _ t -> int
val delay_bound : _ t -> float
(** The delay model's [D]. *)

val substrate : _ t -> substrate
(** What this network runs on; [Lossy] reports the link's {e current}
    fault rates. *)

val transport : 'm t -> 'm Transport.t option
(** The transport layer, when running on the lossy stack — exposes the
    wire ({!Transport.link}) for tests and wire-level tracing. *)

val set_handler : 'm t -> int -> (src:int -> 'm -> unit) -> unit
(** Install node [i]'s message handler. Handlers run atomically with
    respect to fibers and other handlers (single-threaded engine). *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Point-to-point send. No-op when [src] is crashed. *)

val broadcast : 'm t -> src:int -> 'm -> unit
(** Send to every node including [src] itself (delivered at the current
    time, still via the handler, preserving atomicity), in increasing
    node-id order. Honours any pending {!crash_during_next_broadcast}. *)

val crash : 'm t -> int -> unit
(** Crash node [i] now. Idempotent. On the lossy stack this also cancels
    every retransmission timer touching [i] (a crashed node must not
    keep sending, and channels towards it would otherwise retransmit
    forever). *)

val crash_during_next_broadcast : 'm t -> int -> deliver_to:int list -> unit
(** Arm a fault: node [i]'s {e next} [broadcast] delivers only to the
    nodes in [deliver_to], then [i] crashes. Point-to-point [send]s
    before that broadcast are unaffected. *)

val crash_during_next_broadcast_matching :
  'm t -> int -> match_:('m -> bool) -> deliver_to:int list -> unit
(** Like {!crash_during_next_broadcast} but only the first broadcast
    whose message satisfies [match_] triggers the fault; earlier
    non-matching broadcasts go through untouched. This scripts the
    failure chains of Definition 11, where nodes crash specifically
    while relaying a {e value}. Over the lossy stack the crash cancels
    the node's retransmissions, so no retransmitted copy can widen the
    broadcast beyond [deliver_to] after the fact. *)

val is_crashed : _ t -> int -> bool
val crashed_count : _ t -> int
val live_nodes : _ t -> int list

val on_crash : 'm t -> (int -> unit) -> unit
(** Register a callback invoked (after state update) each time a node
    crashes; used by the harness to excuse pending operations at the
    crashed node. *)

val restart : _ t -> int -> unit
(** Revive crashed node [i]: it may send and receive again, with
    whatever volatile state its handler closure still holds — the
    {e protocol} layer is responsible for resetting that state and
    recovering from its durable log before serving (see
    [Proto.Instance.restart]). No-op when [i] is live. On the {!Lossy}
    substrate the node comes back as a new transport incarnation
    ({!Transport.restart}): whatever the dead incarnation left on the
    wire is discarded, and channels in both directions restart from
    sequence number 0. *)

val on_restart : 'm t -> (int -> unit) -> unit
(** Register a callback invoked (after state update) each time a node
    restarts; the harness uses it to abort the node's pre-crash pending
    operations and launch post-restart traffic. *)

val messages_sent : _ t -> int
(** Total messages handed to the network (including self-sends). These
    are {e logical} messages; wire-level packet counts (retransmits,
    acks, duplicates) live in {!stats}. *)

val messages_delivered : _ t -> int
(** Messages whose destination handler actually ran. *)

val metrics : _ t -> Obs.Metrics.t
(** The deployment's metrics registry. The network registers
    ["net.sent"], ["net.delivered"], ["net.dropped"] and
    ["net.broadcasts"]; on the {!Lossy} substrate the transport and
    link share the same registry (["transport.*"], ["link.*"]);
    algorithms add their protocol counters here so one snapshot covers
    the whole deployment. *)

val set_msg_label : 'm t -> ('m -> string) -> unit
(** Install the payload-free message-kind labeler used for [cat:"net"]
    trace instants (e.g. ["writeTag"]); until installed, events are
    labelled ["msg"]. Independent of {!set_tracer}. *)

(** {2 Link-layer chaos controls}

    Only meaningful on the {!Lossy} substrate.
    @raise Invalid_argument on an {!Ideal} network — chaos schedules
    against the axiomatic substrate are a configuration bug, not a
    silent no-op. *)

val set_link_faults : _ t -> Link.faults -> unit
val partition : _ t -> int list list -> unit
(** See {!Link.partition}: nodes in different groups stop exchanging
    packets until {!heal}; unlisted nodes form one implicit group. *)

val heal : _ t -> unit

(** {2 Accounting and diagnostics} *)

type stats = {
  sent : int;  (** logical sends accepted (= {!messages_sent}) *)
  delivered : int;  (** logical handler deliveries *)
  wire_sent : int;  (** packets on the wire: data + acks + retransmits *)
  wire_delivered : int;
  wire_lost : int;  (** eaten by the loss model *)
  wire_cut : int;  (** dropped at a partition boundary *)
  retransmits : int;
  acks : int;
  duplicated : int;
  reordered : int;
}
(** On {!Ideal}, wire counts equal logical counts and the fault counters
    are zero, so [wire_sent / sent] is the transport overhead factor on
    any substrate. *)

val stats : _ t -> stats

val pp_state : Format.formatter -> _ t -> unit
(** Multi-line diagnostic dump: logical counters, crashed set, and (on
    the lossy stack) per-node transport channel state — what the
    liveness watchdog prints when an operation hangs. *)

(** Observation points for tracing and message accounting. *)
type 'm event =
  | Sent of { src : int; dst : int; at : float; msg : 'm }
  | Delivered of { src : int; dst : int; at : float; msg : 'm }
  | Dropped of { src : int; dst : int; at : float; msg : 'm }
      (** destination was crashed at delivery time *)

val set_tracer : 'm t -> ('m event -> unit) -> unit
(** Install an observer called on every send/delivery/drop. One tracer
    per network; installing replaces the previous one. Tracing is off
    (zero-cost) until installed. Events are logical (per message, not
    per wire packet); use {!transport} + {!Link.set_tracer} for the
    wire view. *)

val pp_event_route : Format.formatter -> 'm event -> unit
(** Payload-free one-line rendering of an event (time, kind, route) —
    usable for any message type, e.g. the watchdog's last-N ring. *)
