(** The rt backend's flight-recorder vocabulary: one {!Obs.Recorder}
    ring per node and the interned event codes the instrumentation sites
    share. Created by {!Net.create} before any domain runs (interning is
    setup-time only); the per-event helpers below are allocation-free
    and must be called by the domain owning the node — the recorder's
    single-writer contract.

    Event names (the Perfetto vocabulary):
    - [op.update], [op.scan] — spans around each operation on its home
      node's domain;
    - [park.wait] — instant, value = seconds the node slept before the
      mailbox refilled;
    - [mailbox.depth] — counter, sampled after each park and on every
      64th receive;
    - [batch.fuse] — counter, value = UPDATEs fused into one quorum
      write;
    - [recover.replay], [recover.rejoin] — spans around the WAL replay
      and rejoin phases of a crash-restart.

    Messages have no ring event: each is recorded once, in the causal
    log ({!Net.causal}), and {!to_trace} draws the [net.msg] arrows from
    that log at export. *)

type t
type node

val create : ?capacity:int -> n:int -> now:(unit -> float) -> unit -> t
val recorder : t -> Obs.Recorder.t
val node : t -> int -> node
val now : node -> float

val update_begin : node -> unit
val update_end : node -> unit
val scan_begin : node -> unit
val scan_end : node -> unit
val park : node -> secs:float -> unit
val depth : node -> n:int -> unit
val fuse : node -> n:int -> unit
val replay : node -> t0:float -> t1:float -> unit
(** Retroactive [recover.replay] span with explicit timestamps: the
    replay itself runs on the restarter thread while the node's domain
    is dead, and the fresh incarnation stamps it afterwards — the only
    sanctioned off-domain measurement. *)

val rejoin_begin : node -> unit
val rejoin_end : node -> unit

val to_trace : ?causal:Obs.Vclock.recorder -> Obs.Recorder.t -> Obs.Trace.t
(** The recorder's rings as a Perfetto-ready {!Obs.Trace} (one track per
    node, wall seconds rendered as trace milliseconds), merged in
    timestamp order with [net.msg] flow events (category [net]) drawn
    from [causal]'s log: a flow start on the sender's track at each
    retained [Send], and a flow end on the receiver's track at each
    retained [Deliver] whose [Send] is retained too, both at the event's
    [at] and with its flow id. No end ever lacks its start; a start
    whose delivery is not retained (still in flight, dropped at a
    crashed node, or past the log's window) draws no arrow. Without
    [causal] there are no flow events. Export-time only; call after the
    run or from any thread while it runs. *)
