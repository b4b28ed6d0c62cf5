(** Execute a workload + adversary against an algorithm and record the
    history, latencies (in units of [D]) and message counts. *)

type delay_spec =
  | Fixed_d of float  (** every message takes exactly [D] — worst case *)
  | Uniform_d of { lo : float; hi : float; d : float }

type config = { n : int; f : int; delay : delay_spec; seed : int64 }

val default_config : config
(** [n = 8], [f = 3], [Fixed_d 1.0], seed 42. *)

type outcome = {
  history : History.t;
  end_time : float;  (** virtual time when the system went quiescent *)
  messages : int;
  d : float;  (** the delay bound, for normalising latencies *)
  crashed : int list;  (** nodes that failed during the run *)
  algorithm : string;
  net : Instance.net_stats;
      (** both-layer message accounting;
          [Instance.overhead_factor outcome.net] is the retransmit
          overhead on the lossy substrate *)
  metrics : Obs.Metrics.snapshot;
      (** the deployment's full metrics registry (network, wire,
          protocol counters, rounds-per-op histograms) plus
          ["engine.steps"] and ["engine.time_advances"]; mergeable
          across runs with {!Obs.Metrics.merge} *)
}

exception Stuck of string
(** Raised when an operation at a node that never crashed failed to
    terminate — a liveness violation of the algorithm under test. With a
    {!watchdog} the payload carries the full diagnostic dump. *)

type caught = {
  violation : Obs.Monitor.violation;
  delivered : int;
      (** logical network messages delivered when the monitor fired —
          compare against a full run's delivery count to see how much
          earlier the online catch was *)
  slice : Obs.Vclock.event list;
      (** causal provenance: the happened-before message chain into the
          violating node, from the run's vector-clock recorder (empty
          only if no recorder was attached) *)
}

exception Monitor_violation of caught
(** Raised mid-run — the simulation stops at the first violation the
    online monitor detects, before the remaining events execute. *)

type watchdog = {
  budget : float;
      (** simulated-time budget in units of [D]; an operation still
          pending when the clock passes [budget * D] counts as stuck *)
  trace : int;  (** keep the last [trace] trace events for the dump *)
}
(** Liveness watchdog: bound the run by simulated time instead of
    waiting for quiescence, and convert a hang into a failing
    {!Stuck} carrying the pending operations, the per-node
    transport/link state, and the tail of the structured trace (an
    {!Obs.Trace} ring of the last [trace] events — the same stream
    the exporters consume). Needed under chaos: an unhealed partition
    retransmits forever and the engine never goes quiescent on its
    own. *)

val default_watchdog : watchdog
(** [budget = 400 D], [trace = 32] — generous for every algorithm in
    this repo at the default [n]. *)

type maker =
  Sim.Engine.t -> n:int -> f:int -> delay:Sim.Delay.t -> int Instance.t

val run :
  ?workload_seed:int64 ->
  ?substrate:Sim.Network.substrate ->
  ?watchdog:watchdog ->
  ?trace:Obs.Trace.t ->
  ?causal:Obs.Vclock.recorder ->
  ?monitor:Obs.Monitor.t ->
  ?configure:(Sim.Engine.t -> int Instance.t -> unit) ->
  ?restart_ops:Workload.op list ->
  make:maker ->
  config ->
  workload:Workload.t ->
  adversary:Adversary.t ->
  outcome
(** Spawn one client fiber per node walking its schedule, install the
    adversary, run the simulation to quiescence (or to the watchdog's
    deadline), and verify that every operation at a surviving node
    completed. [substrate] (default {!Sim.Network.Ideal}) selects the
    network stack the algorithm's [Network.create] calls land on —
    pass [Lossy] to run an unmodified algorithm over the
    drop/duplicate/reorder link with the reliable transport on top.

    [trace] attaches a caller-owned {!Obs.Trace} to the engine before
    construction, so every layer (wire, network, protocol phases,
    operations) emits into it — export it afterwards with
    {!Obs.Trace.to_chrome} or {!Obs.Trace.to_jsonl}. Without [trace],
    a watchdog with [trace > 0] attaches a bounded ring of that many
    events for the {!Stuck} post-mortem; with neither, the noop trace
    is used and the schedule is identical to an uninstrumented run.

    [causal] attaches a caller-owned {!Obs.Vclock.recorder} to the
    engine before construction: every network send/deliver is logged
    with its flow id, and the log's readers compute vector clocks for
    ShiViz export and causal-cone queries.

    [monitor] attaches an online {!Obs.Monitor}: the history's own
    invoke/respond/abort stream ({!History.create}[ ~observe]) plus
    crashes, restarts and per-update round samples are streamed into
    it as they happen, and the run aborts with {!Monitor_violation} at
    the first failed check — carrying the causal provenance slice from
    the recorder (a private one is created when [monitor] is given
    without [causal]).

    [configure] runs after the deployment is built but before any event
    executes — the model checker's entry point for installing a
    controllable scheduler ({!Sim.Engine.set_chooser}) and step-indexed
    crash injections ({!Sim.Engine.add_on_step}) on the run.

    Whenever a node {e restarts} (crash-restart adversary or
    model-checker restart injection), the runner aborts the node's
    pre-crash pending operation in the history (restart is not
    resurrection), streams [Abort]/[Restart] to the monitor, and — once
    the node's recovery completes — drives [restart_ops] (default one
    UPDATE then one SCAN) at it through the ordinary client machinery,
    so post-restart behaviour is recorded and checked like any other
    traffic. Pass [~restart_ops:[]] to disable post-restart traffic. *)

val update_latencies : outcome -> float list
(** Completed UPDATE durations divided by [D], invocation order. *)

val scan_latencies : outcome -> float list

val max_latency : float list -> float
(** 0 on empty. *)

val mean_latency : float list -> float
(** 0 on empty. *)
