(** The dist backend: one OS process per protocol node, a full mesh of
    stream sockets between them, satisfying the same {!Backend.net}
    surface as the simulator and the domains runtime — so
    [Lattice_core]/[Eq_aso]/[Sso] run on it unmodified via
    [create_on].

    One [Net.t] {e is} one node (unlike [Rt.Net], which owns all [n]
    domains): node [me] listens on its own endpoint and dials every
    peer. Each directed channel (me, dst) rides me's outbound
    connection to dst as [Data] frames; the acceptor acks cumulatively
    on the same socket, so a channel's ack path dies exactly when its
    data path does. {!Chan} gives each channel reliable-FIFO
    delivery across drops, reconnects and peer restarts; the handshake
    ([Hello]/[Welcome] with boot incarnation ids) tells a plain
    reconnect apart from a peer that came back as a new process.

    Threading: the caller's thread runs the {!Rt.Node} mailbox loop
    ({!run}) — handlers and operations interleave only at [await]
    pump points, the execution contract every backend honours. Around
    it: an accept thread, one reader thread per live connection, one
    dialer/writer thread and one ack reader per peer, a 20 ms timer
    (retransmissions and acks), and (under link faults) a delayer. All
    of them touch protocol state only by posting mailbox items.

    {e Who writes a frame.} After the handshake the outbound socket is
    non-blocking, and every write to it is made under the peer's lock,
    so one thread at a time writes a connection and frames never
    interleave. On a live connection with nothing queued and no link
    faults, the protocol thread writes each [Data] frame itself, in
    [send]. What the socket does not take ([EAGAIN], a short write) is
    finished by the peer's writer thread, which waits for the socket
    with [select]; frames sent meanwhile queue behind it, and the
    writer drains them before direct writes resume. So the protocol
    thread never blocks on a peer that stops reading. The writer also
    carries retransmissions, the frames a reconnect re-emits, and,
    under link faults, every frame. A dead socket marks the connection
    dead whoever writes; its unacked frames go out again after the
    reconnect.

    {e Acks.} The acceptor acks cumulatively on the same socket. A
    frame that is not simply the next one (a duplicate, or one that
    opens or fills a gap) is acked at once: its sender is
    retransmitting. Other frames are acked once 64 are unacked, or on
    the next timer tick for every channel that advanced since its last
    ack — 5x inside the 0.1 s retransmission timeout. The reader
    thread and the timer write acks under the channel's lock on a
    non-blocking socket: an ack the socket cannot take now is skipped
    for the next frame or tick to retry, so a peer that stops reading
    its acks stalls no thread here. Counters:
    ["dist.data_sent"] (first transmissions), ["dist.retransmits"] and
    ["dist.acks_sent"] sum to the frames on the wire, link faults
    aside.

    {e Link faults} ({!Chan.faults}) are applied on the sender side,
    to [Data] frames only — never to the handshake or to acks, whose
    loss the next retransmission covers anyway. [drop] skips the write
    (the frame stays unacked), [dup] writes it twice, and [reorder]
    holds it back for a uniform [\[0, 5 ms)] so later frames overtake
    it. Counters: ["link.wire_lost"], ["link.duplicated"],
    ["link.reordered"], the simulator's names. *)

type msg = Wire.msg

type t

val create :
  ?faults:Chan.faults ->
  ?seed:int ->
  me:int ->
  eps:Conn.endpoint array ->
  unit ->
  t
(** Build node [me] of the deployment described by [eps] (one endpoint
    per node, everyone agreeing on the array). Retransmission uses
    {!Chan}'s LAN timeouts (0.1 s, doubling to 2 s). Nothing listens
    or dials until {!start}. The fault dice are seeded from
    [(seed, me)] (default seed 1), so the nodes of one deployment draw
    independent verdicts. @raise Invalid_argument on a rate outside
    [[0, 1)]. *)

val me : t -> int
val size : t -> int
val boot : t -> int
val metrics : t -> Obs.Metrics.t

type verdict = Pass | Drop | Duplicate | Hold of float  (** seconds *)

val judge : t -> verdict
(** Roll the dice for the next outgoing data frame. Thread-safe;
    always [Pass] without faults. *)

val backend : t -> msg Backend.net
(** The engine surface ([backend_name = "dist"]). Only node [me]'s
    condition may be awaited — the other nodes live in other
    processes. *)

val now_ns : unit -> int
(** Absolute [CLOCK_MONOTONIC] nanoseconds — system-wide on Linux, so
    stamps from different node processes on one machine are mutually
    comparable. This is what [Resp] frames carry and what the
    supervisor merges into one history. *)

val start : t -> unit
(** Bind the listener, start dialing peers, start the retransmission
    timer. Call after the protocol installed its handler. *)

val run : t -> unit
(** The node's main loop (blocking): deliver messages, run client work,
    return once {!request_stop} was called. *)

val post_work : t -> (unit -> unit) -> unit
(** Enqueue a thunk to run in protocol context (serialized with every
    other operation and handler). *)

val set_client_handler :
  t -> (Wire.frame -> reply:(Wire.frame -> unit) -> unit) -> unit
(** Install the handler for client connections (first frame is a
    [Req]). Runs on the connection's reader thread; [reply] is safe
    from any thread. Install before {!start}. *)

val request_stop : t -> unit
(** Make {!run} return after the current mailbox item. Safe from any
    thread, not from a signal handler (see
    {!Node_main.request_stop}). *)

val stop : t -> unit
(** Tear the sockets and helper threads down. Call after {!run}
    returned. *)
