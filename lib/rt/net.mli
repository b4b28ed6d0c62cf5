(** The rt backend's network: [n] {!Node}s (one domain each) exchanging
    messages through their mailboxes.

    Mirrors the {!Sim.Network} surface the protocols consume — send,
    broadcast (self-delivery included), per-node handlers, crash — and
    exports it as a {!Backend.net} via {!backend}. Channel guarantees
    match the simulator's reliable-FIFO transport: a (src, dst) pair has
    a single producing domain, and the MPSC mailbox preserves
    per-producer order, so per-channel FIFO holds (the [Good_la]
    borrowing logic depends on it). Delivery is asynchronous with
    arbitrary (scheduler-determined) latency, which is exactly the
    asynchronous-model assumption.

    The clock ({!now}, and [Backend.now]) is monotonic wall time in
    seconds since {!create} — real-time histories, where the simulator
    reports virtual time in units of the delay bound [D]. *)

type 'm t

val create : ?recorder:bool -> ?causal:bool -> n:int -> unit -> 'm t
(** Allocate nodes and register the network counters ([net.sent] etc. —
    the simulator's names). Domains are not yet running: install
    handlers (via {!backend} and the protocol constructor), then
    {!start}. [recorder] (default [true]) attaches a flight-recorder
    ring to every node ({!Telem}); pass [false] to measure its absence
    (the bench overhead rows). [causal] (default [false]) attaches an
    {!Obs.Vclock.recorder} and logs every message: {!send} records the
    send on the sender's domain and piggy-backs its flow id next to the
    untouched payload, and the delivery observer records the delivery
    on the receiving domain — mirroring the sim wiring, so rt
    violations get the same causal-cone slices (clocks are rebuilt
    when the log is read). That log is each message's only record: the
    flight-recorder rings hold no per-message event, and
    {!Telem.to_trace} draws the [net.msg] arrows from the log when a
    trace is exported.

    The [net.*] counters have one cell per sending node, summed when
    read, so node domains never write a shared cell. *)

val size : _ t -> int
val metrics : _ t -> Obs.Metrics.t
val node : 'm t -> int -> 'm Node.t

val telem : _ t -> Telem.t option
val recorder : _ t -> Obs.Recorder.t option
(** The flight recorder, when enabled at {!create}. *)

val causal : _ t -> Obs.Vclock.recorder option
(** The vector-clock recorder, when enabled at {!create} — the handle
    {!Live_monitor} slices for violation provenance. *)

val now : _ t -> float
(** Monotonic seconds since {!create}. Safe from any domain. *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Drop silently if [src] crashed (a crashed node sends nothing) or
    [dst] crashed (a crashed node receives nothing); counted under
    [net.dropped] in the latter case, where the causal log keeps the
    [Send] with no [Deliver]. Call it as node [src]: from its domain,
    or from one thread while that domain does not send. *)

val cut_link : _ t -> src:int -> dst:int -> unit
(** Fault injection (tests): silently drop every message on the
    directed link [src → dst] from now on, counted under [net.dropped].
    Safe to poke from any thread while the deployment runs. The
    asynchronous model lets messages between live nodes stall
    arbitrarily long, so a cut link is within the envelope the
    protocols must tolerate for {e safety} — a correct quorum write
    blocks rather than completes when too many links are out, which is
    exactly what the quorum-mutant live-monitor test exploits. *)

val heal_link : _ t -> src:int -> dst:int -> unit
(** Undo {!cut_link} for that directed link. *)

val broadcast : 'm t -> src:int -> 'm -> unit
(** Send to every node, including [src] itself. *)

val backend : 'm t -> 'm Backend.net
(** The {!Backend.net} view protocols are wired onto
    ([Aso_core.Eq_aso.create_on], …). [trace] is {!Obs.Trace.noop}:
    there is no online observability on rt — completed runs are checked
    in batch. *)

val start : _ t -> unit
(** Spawn all node domains. Handlers must already be installed. *)

val stop : _ t -> unit
(** Post [Stop] everywhere and join every domain (crashed domains have
    already exited and just join). *)

val crash : _ t -> int -> unit
val is_crashed : _ t -> int -> bool

val restart : _ t -> int -> unit
(** Revive a crashed node with a fresh domain and an empty mailbox
    ({!Node.restart}); protocol volatile state must already be reset. *)

val post_work : 'm t -> int -> (unit -> unit) -> bool
(** Submit an operation thunk to run on node [i]'s domain; [false] if
    the node has crashed. *)
