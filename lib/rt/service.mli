(** Front-end that owns an rt deployment and drives it under load.

    Clients (systhreads) submit UPDATE/SCAN requests; each request runs
    as a work thunk on the target node's own domain, so per-node
    execution is serialized — the model's sequential-node assumption —
    while different nodes run genuinely in parallel. The service stamps
    a real-time {!History.t} at protocol execution boundaries (under one
    service lock, with the monotonic clock), which every completed run
    feeds through the batch A0–A4 checker. Client-perceived latency
    (including mailbox queueing) is measured separately by the clients
    and reported as p50/p99 material; it is {e not} what the history
    records, because overlapping same-node client intervals would
    violate history well-formedness.

    {b Batching} ([~batch:true]): per-node group commit. Queued updates
    are coalesced into a single protocol write of the last queued value;
    only that fused write enters the checked history, and the coalesced
    requests are acknowledged when it completes (linearize them
    immediately before the fused write — sound because checker bases
    are prefix-closed in per-node program order). Submission is
    lock-free: each node has an {!Mpmc} sub-queue fed by every client
    domain, and a CAS-claimed drain flag decides which submitter posts
    the drain work item — the service lock is not taken on this path.

    {b Crashes}: {!run}'s [~crash] list poisons those nodes mid-run
    (k ≤ f enforced); their in-flight requests resolve as [`Aborted] and
    clients fail over to other nodes. A crashed node contributes at most
    one pending operation to the history, as the model prescribes.

    {b Crash-restart}: every node owns a durable store (a file-backed
    write-ahead log under [~wal_dir], or durable memory without it) that
    survives {!crash_node} — the crash tears down the domain, not the
    disk. {!restart_node} aborts the dead incarnation's pending history
    operation, resets the protocol's volatile state, replays the log,
    rejoins via a quorum state pull on a fresh domain, and serves again;
    the first served operation is a probe SCAN the service stamps into
    the checked history, so the A0–A4 battery exercises the recovered
    node. {!run}'s [~restart_after] drives the whole cycle under live
    client traffic. *)

type algo = Eq_aso | Sso_fast_scan

val algo_name : algo -> string
val algo_of_name : string -> algo option
(** Accepts dashes or underscores, case-insensitive. *)

val mode : algo -> Obs.Monitor.mode
(** The conditions the algorithm's histories must satisfy: [Atomic]
    (A0–A4) for EQ-ASO, [Sequential] (S1–S3) for SSO. *)

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
  ?parking:Node.parking ->
  ?mutation:Aso_core.Lattice_core.mutation ->
  ?wal_dir:string ->
  algo:algo ->
  n:int ->
  f:int ->
  unit ->
  t
(** Build the deployment (network, protocol wiring, history); domains
    are not running until {!start}. Requires [n > 2f]. With [~wal_dir],
    node [i] writes its mints to [wal_dir/node-i.wal] (created or
    appended); without it, each node gets an in-memory durable store, so
    {!restart_node} works either way. [recorder] (default [true])
    attaches the per-node flight-recorder rings; [online] (default
    [false]) attaches a {!Live_monitor} (fed at every history stamp,
    started/joined by {!start}/{!stop}) {e and} enables the network's
    causal stamping, so a live violation carries a causal-cone slice;
    [monitor_throttle] is the monitor-slowing test hook forwarded to
    {!Live_monitor.create}; [mutation] arms a seeded protocol bug
    ({!Aso_core.Lattice_core.mutation}) so the checker/forensics
    pipeline can be demonstrated on a run that is {e guaranteed} to
    violate. *)

val start : t -> unit
val stop : t -> unit
(** Stop all node domains and join them. Call only when no requests are
    outstanding. *)

val fresh_value : t -> int
(** Globally unique update values (the checker identifies an UPDATE by
    its value — the paper's footnote-2 assumption). *)

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

val metrics : t -> Obs.Metrics.t
(** The deployment's registry: [net.*] counters plus the service-level
    [svc.updates_ok], [svc.scans_ok], [svc.rejected], [svc.aborted]
    counters and [svc.update_latency_s] / [svc.scan_latency_s]
    log-histograms. Safe to snapshot from any thread while the
    deployment runs — this is what the live telemetry endpoint serves. *)

val recorder : t -> Obs.Recorder.t option
(** The flight recorder (when enabled): drain/merge any time, including
    after {!stop}, for the forensics dump. *)

val stats_snapshot : t -> Obs.Metrics.snapshot
(** [Obs.Metrics.snapshot (metrics t)]. *)

(** {2 Closed-loop load runs} *)

type report = {
  algorithm : string;
  backend : string;
  rep_n : int;
  rep_f : int;
  clients : int;
  batched : bool;
  duration : float;  (** measured wall seconds *)
  completed_updates : int;
  completed_scans : int;
  rejected : int;  (** requests refused up front — target already down *)
  aborted : int;  (** requests in flight when their node crashed *)
  fused_updates : int;  (** protocol writes saved by batching *)
  ops_per_sec : float;
  update_lat : Obs.Hdr.dist;
      (** client-observed seconds, log-bucketed (~3.1% relative error) —
          query with [Obs.Hdr.dist_quantile] *)
  scan_lat : Obs.Hdr.dist;
  crashed_nodes : int list;
  recoveries : recovery list;  (** one entry per completed rejoin *)
  messages_sent : int;
  final_metrics : Obs.Metrics.snapshot;  (** registry at shutdown *)
  history : History.t;
  live_verdict : Live_monitor.verdict option;
      (** [Some _] iff the live monitor tripped — the run was halted
          mid-flight (client intake stops at the next poll) *)
  monitor_events_checked : int;  (** 0 when the monitor is off *)
  monitor_scans_verified : int;
}

val run :
  ?batch:bool ->
  ?recorder:bool ->
  ?online:bool ->
  ?monitor_throttle:(unit -> unit) ->
  ?parking:Node.parking ->
  ?mutation:Aso_core.Lattice_core.mutation ->
  ?on_start:(t -> unit) ->
  ?scan_fraction:float ->
  ?seed:int ->
  ?crash:int list ->
  ?crash_after:float ->
  ?restart_after:float ->
  ?wal_dir:string ->
  algo:algo ->
  n:int ->
  f:int ->
  clients:int ->
  secs:float ->
  unit ->
  report
(** Deploy, run [clients] closed-loop client threads for [secs] wall
    seconds (default [scan_fraction] 0.2, [seed] 42), optionally crash
    the [~crash] nodes at [~crash_after] (default halfway), stop the
    deployment, and report. With [~restart_after] (must exceed the crash
    time; raises [Invalid_argument] otherwise), the crashed nodes are
    revived at that offset — log replay, rejoin, probe SCAN — while
    client traffic continues, and the report's [recoveries] list carries
    the measured recovery times. The returned history is finished and
    ready for the batch checker.

    With [~online:true] a {!Live_monitor} checks the history as it is
    produced: a violation halts client intake mid-run (the run returns
    early) and lands in the report's [live_verdict], complete with a
    causal-cone slice from the network's vector-clock log.

    [on_start] is called with the live deployment right after the node
    domains start and before clients are spawned — the hook the serve
    command uses to wire its sampler thread and telemetry endpoint to
    {!metrics}/{!recorder} while the run is in flight. The handle stays
    valid (for post-mortem drains) after [run] returns. *)

val volatile_metrics : report -> (string * float) list
(** The report's timing-dependent numbers, for the bench JSON's volatile
    section ({e never} the drift-gated one). *)
