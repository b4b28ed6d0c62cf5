(** The dist backend: one OS process per protocol node, a full mesh of
    stream sockets between them, and the same {!Backend.net} surface as
    the simulator and the domains runtime, so the protocols run on it
    unmodified. Node [me] listens on its endpoint and dials every peer;
    channel (me, dst) rides me's connection to dst as [Data] frames,
    acked cumulatively on the same socket. {!Chan} makes each channel
    reliable-FIFO across drops and reconnects; the handshake
    ([Hello]/[Welcome], with boot incarnation ids) tells a reconnect
    from a peer that came back as a new process, whose channels the
    first [Hello] or [Welcome] naming it fences ({!Chan.tx_fence}).

    {e One thread.} The thread in {!run} is the node's only one: {!run}
    and [await] pump one [select] loop over the listener, the sockets
    and a wake pipe, with the 20 ms tick, the redial backoff (10 ms
    doubling to 0.5 s) and held frames as its deadlines. Handlers run
    in that pump, so operations meet them only at [await]; work that
    arrives meanwhile waits until the running operation returns.

    {e Who writes a frame.} Every socket is non-blocking with one
    out-buffer: a write appends and, if the buffer was empty, writes
    what the socket takes; the loop writes the rest when the socket is
    writable. A peer that stops reading only grows its own buffer, and
    a client is read only while its last reply is written and no
    request of its runs.

    {e Acks.} {!Chan.rx}'s policy, [ack_every = 64] plus the tick; an
    owed ack waits for an empty out-buffer. ["dist.data_sent"],
    ["dist.retransmits"] and ["dist.acks_sent"] count the frames on the
    wire, link faults aside.

    {e Link faults} ({!Chan.faults}) apply to the [Data] frames a node
    sends: [drop] skips one (counted in ["link.wire_lost"]), [dup]
    writes it twice (["link.duplicated"]), [reorder] holds it for a
    uniform [\[0, 5 ms)] (["link.reordered"]). *)

type msg = Wire.msg
type t

val create :
  ?faults:Chan.faults -> ?seed:int -> me:int -> eps:Conn.endpoint array ->
  unit -> t
(** Node [me] of the deployment [eps] (one endpoint per node, the same
    array everywhere), retransmitting after 0.1 s doubling to 2 s, its
    fault dice seeded from [(seed, me)] (default seed 1).
    @raise Invalid_argument on a rate outside [[0, 1)]. *)

val metrics : t -> Obs.Metrics.t

type verdict = Pass | Drop | Duplicate | Hold of float  (** seconds *)

val judge : t -> verdict
(** Roll the dice for the next outgoing data frame. *)

val backend : t -> msg Backend.net
(** The engine surface ([backend_name = "dist"]). Only node [me]'s
    condition may be awaited, on the node's thread. *)

val now_ns : unit -> int
(** Absolute [CLOCK_MONOTONIC] nanoseconds, comparable across the
    processes of one machine: what [Resp] frames carry. *)

val start : t -> unit
(** Bind the listener, after the protocol installed its handler. *)

exception Stopped
(** Raised by the backend's [await] after {!request_stop}: the waiting
    operation ends as a crash ends it. {!run} catches it. *)

val run : t -> unit
(** The node's loop, on the calling thread: serve sockets and timers,
    run posted work in order, and return once {!request_stop} was
    called. An operation waiting in [await] then ends ({!Stopped});
    queued work is dropped. *)

val post_work : t -> (unit -> unit) -> unit
(** Queue a thunk for {!run}, from any thread. A post from another
    thread wakes the loop out of [select]; one from the loop's own
    thread does not need to. *)

val set_client_handler :
  t -> (Wire.frame -> reply:(Wire.frame -> unit) -> unit) -> unit
(** The handler for client connections (first frame a [Req]), set
    before {!start}. It and [reply] run on the node's thread. *)

val request_stop : t -> unit
(** Make {!run} return, from any thread or signal handler. *)

val stop : t -> unit
(** Close the sockets, after {!run} returned. *)
