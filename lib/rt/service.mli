(** Front-end that owns an rt deployment and drives it under load.

    Clients (systhreads) submit UPDATE/SCAN requests; each request runs
    as a work thunk on the target node's own domain, so per-node
    execution is serialized — the model's sequential-node assumption —
    while different nodes run genuinely in parallel. The service stamps
    a real-time {!History.t} at protocol execution boundaries (under one
    service lock, with the monotonic clock), which every completed run
    feeds through the batch A0–A4 checker. Client-perceived latency
    (including mailbox queueing) is measured by {!Load.run}; it is
    {e not} what the history records, because overlapping same-node
    client intervals would violate history well-formedness.

    {b Batching} ([~batch:true]): per-node group commit. Queued updates
    are coalesced into a single protocol write of the last queued value;
    only that fused write enters the checked history, and the coalesced
    requests are acknowledged when it completes (linearize them
    immediately before the fused write — sound because checker bases
    are prefix-closed in per-node program order). Submission is
    lock-free: each node has an {!Mpmc} sub-queue fed by every client
    domain, and a CAS-claimed drain flag decides which submitter posts
    the drain work item — the service lock is not taken on this path.

    {b Crashes}: {!crash_node} poisons a node mid-run; its in-flight
    requests resolve as [`Aborted] and clients fail over to other
    nodes. A crashed node contributes at most
    one pending operation to the history, as the model prescribes.

    {b Crash-restart}: every node owns a durable store (a file-backed
    write-ahead log under [~wal_dir], or durable memory without it) that
    survives {!crash_node} — the crash tears down the domain, not the
    disk. {!restart_node} aborts the dead incarnation's pending history
    operation, resets the protocol's volatile state, replays the log,
    rejoins via a quorum state pull on a fresh domain, and serves again;
    the first served operation is a probe SCAN the service stamps into
    the checked history, so the A0–A4 battery exercises the recovered
    node. A {!Load.faults} plan drives the whole cycle under live client
    traffic through {!deployment}. *)

type algo = Aso_core.Handle.algo = Eq_aso | Sso_fast_scan
(** Name, parser and checker mode: {!Aso_core.Handle}. *)

type t

type recovery = {
  rec_node : int;
  rec_replayed : int;
      (** log records replayed (the store's size at restart) *)
  rec_ready_after : float;
      (** seconds from the restart call to recovery completion *)
  rec_first_op : float;
      (** seconds from the restart call to the first served operation
          (the probe SCAN the service runs as soon as rejoin ends) *)
}

val create :
  ?batch:bool ->
  ?recorder:bool ->
  ?online:bool ->
  ?monitor_throttle:(unit -> unit) ->
  ?mutation:Aso_core.Lattice_core.mutation ->
  ?wal_dir:string ->
  algo:algo ->
  n:int ->
  f:int ->
  unit ->
  t
(** Build the deployment (network, protocol wiring, history); domains
    are not running until {!start}. Requires [n > 2f]. With [~wal_dir]
    (created if missing), node [i] writes its mints to
    [wal_dir/node-i.wal] (created or appended); without it, each node gets an in-memory durable store, so
    {!restart_node} works either way. [recorder] (default [true])
    attaches the per-node flight-recorder rings; [online] (default
    [false]) attaches a {!Live_monitor} as the history's observer (it
    receives every invoke/respond/abort the history records, under the
    service lock; started/joined by {!start}/{!stop}) {e and} enables
    the network's causal stamping, so a live violation carries a causal-cone slice;
    [monitor_throttle] is the monitor-slowing test hook forwarded to
    {!Live_monitor.create}; [mutation] arms a seeded protocol bug
    ({!Aso_core.Lattice_core.mutation}) so the checker/forensics
    pipeline can be demonstrated on a run that is {e guaranteed} to
    violate. *)

val start : t -> unit
val stop : t -> unit
(** Stop all node domains and join them. Call only when no requests are
    outstanding. *)

val update : t -> node:int -> int -> [ `Done | `Rejected | `Aborted ]
(** Blocking (closed-loop) UPDATE from any client thread. [`Rejected] if
    the node was already down when the request arrived (nothing ran);
    [`Aborted] if it crashed while the request was in flight. *)

val scan : t -> node:int -> [ `Snap of int option array | `Rejected | `Aborted ]

val crash_node : t -> int -> unit
(** Poison the node, fail its in-flight requests as [`Aborted], and
    reset its group-commit drain flag (the drain work died with the
    domain; a stale flag would park post-restart batched clients
    forever). *)

val restart_node : t -> int -> unit
(** Revive a crashed node: abort its pending history operation (restart
    is not resurrection), reset protocol volatile state, respawn the
    domain ({!Net.restart}), and run the blocking rejoin — log replay,
    quorum state pull, mint fence, one renewal — as the fresh domain's
    first work item, followed by a probe SCAN stamped into the history.
    Returns as soon as the rejoin is {e posted}; the node serves again
    once it completes (requests meanwhile queue behind it).
    @raise Invalid_argument if the node is not crashed. *)

val history : t -> History.t
val net : t -> int Aso_core.Lattice_core.Msg.t Net.t

val live_monitor : t -> Live_monitor.t option
(** The live online monitor, when created with [~online:true] — the
    sampler line reads its lag and last-checked age from here. *)

val recorder : t -> Obs.Recorder.t option
(** The flight recorder (when enabled): drain/merge any time, including
    after {!stop}, for the forensics dump. *)

val stats_snapshot : t -> Obs.Metrics.snapshot
(** The deployment's registry: [net.*] counters, the live monitor's
    instruments and, once {!Load.run} drives the deployment, the
    driver's [svc.*] counters and latency histograms. Safe from any
    thread while the deployment runs — this is what the live telemetry
    endpoint serves. *)

val recoveries : t -> recovery list
(** One entry per completed rejoin, oldest first. *)

val fused_updates : t -> int
(** Protocol writes saved by batching. *)

val deployment : t -> Load.deployment
(** The adapter {!Load.run} drives: {!update}/{!scan} from any client
    thread, {!crash_node}/{!restart_node} for the fault plan, a node is
    up unless crashed or still recovering, and intake halts when the
    live monitor trips. The [svc.*] instruments land in
    {!stats_snapshot}'s registry.
    Call {!start} before the run and {!stop} after it. *)
