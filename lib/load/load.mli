(** The closed-loop load driver every wall-clock run goes through.

    A backend hands the driver a {!deployment}: a record of closures
    over its nodes. The driver knows nothing else about the backend.
    It runs [clients] client threads for a wall-clock window. Each
    client issues one operation at a time and waits for its outcome
    before the next (the paper's closed loop). The driver owns every
    decision that must not differ between backends:

    - {b values}: update values are [1, 2, 3, …], unique across clients
      (the checker matches an UPDATE by its value);
    - {b failover}: each operation goes to the first node at or after
      the client's home ([client mod n]) for which [up] holds, so a
      client returns home as soon as its node is up again;
    - {b latency}: client-observed, from just before the call to just
      after its outcome, recorded in the [svc.update_latency_s] /
      [svc.scan_latency_s] log-histograms;
    - {b accounting}: [svc.updates_ok], [svc.scans_ok], [svc.rejected]
      and [svc.aborted] counters;
    - {b faults}: a validated {!faults} plan fires [crash] and then
      [restart] once per victim, in order, at fixed offsets.

    The instruments live in the deployment's own registry, so a live
    telemetry endpoint over that registry sees every completion. The
    backend stamps the checked history itself; those stamps are its
    business, not the driver's. *)

type outcome = [ `Done | `Rejected | `Aborted ]
(** [`Rejected]: the node refused the request, nothing ran.
    [`Aborted]: the request was in flight when the node failed, so it
    may or may not have taken effect. *)

type session = {
  update : node:int -> int -> outcome;
  scan : node:int -> outcome;
  close : unit -> unit;
}
(** One client's handle on the deployment (a socket backend keeps the
    client's connections here). Used from that client's thread only. *)

type deployment = {
  n : int;
  up : int -> bool;
      (** whether node [i] takes operations now; read racily, so a
          stale [true] costs one [`Rejected] or [`Aborted] *)
  session : int -> session;  (** client [c]'s session *)
  crash : int -> unit;
  restart : int -> unit;
  halted : unit -> bool;
      (** [true] stops client intake: a tripped live monitor *)
  metrics : Obs.Metrics.t;  (** where the [svc.*] instruments live *)
}

type faults = private {
  victims : int list;  (** crashed, then restarted, in this order *)
  crash_at : float;  (** seconds into the run *)
  restart_at : float option;
}

val faults :
  n:int -> f:int -> ?restart_at:float -> crash_at:float -> int list -> faults
(** The only way to build a plan. @raise Invalid_argument if there are
    more than [f] victims, a victim repeats or lies outside [0, n),
    [crash_at] is negative, or [restart_at] is not after [crash_at]. *)

type report = {
  secs : float;  (** requested window *)
  clients : int;
  duration : float;  (** measured wall seconds, faults included *)
  completed_updates : int;
  completed_scans : int;
  rejected : int;
  aborted : int;
  ops_per_sec : float;  (** completed operations per [duration] *)
  update_lat : Obs.Hdr.dist;  (** client-observed seconds *)
  scan_lat : Obs.Hdr.dist;
  crashed : int list;  (** victims the plan crashed *)
  restarted : int list;  (** victims the plan restarted *)
}

val run :
  ?faults:faults ->
  deployment ->
  clients:int ->
  secs:float ->
  scan_fraction:float ->
  seed:int ->
  report
(** Run [clients] closed-loop clients for [secs] seconds against the
    deployment; client [c] draws its operation kinds from
    [Random.State.make [| seed; c |]]. A client stops at the deadline,
    when [halted] turns true, or when no node is up. Fault events not
    yet due when every client has stopped are skipped. Returns after
    every client and the fault thread have finished; stopping the
    deployment is the caller's job. Drive a deployment once: its
    [svc.*] instruments are cumulative.
    @raise Invalid_argument unless [clients] and [secs] are positive. *)

val volatile : report -> (string * float) list
(** The report's timing-dependent numbers, for the bench JSON's
    ["volatile"] section: ops_per_sec, completed_updates,
    completed_scans, rejected, aborted. *)

val pp_report : Format.formatter -> report -> unit
(** The run summary both [serve] and [dist-serve] print: duration,
    operation counts, throughput, update and scan latency, faults. *)
