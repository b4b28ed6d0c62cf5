(** Live online monitoring for the rt backend.

    A dedicated monitor domain consumes the history's
    invoke/respond/abort stream from a lock-free MPSC feed ({!Queue}) —
    {!Service} makes {!push} the observer of its {!History.t} — and
    drives the streaming {!Obs.Monitor}
    — A0–A4 for eq-aso, the sequential S-pass for sso — against the
    live history with bounded lag. The feed is time-ordered by
    construction: every producer pushes while holding the service lock,
    with the event's timestamp read inside the same critical section,
    so the single consumer replays exactly the non-decreasing-timestamp
    stream the streaming checker requires — bounded lag costs detection
    latency, never soundness (DESIGN.md §6d).

    On violation the monitor {e trips}: it records a {!verdict} — the
    violation plus, when the network runs with the causal log
    ({!Net.create}[ ~causal:true]), the happened-before causal-cone
    slice at the violating node's clock ({!Obs.Vclock.cone}) —
    and stops consuming. {!Service.deployment}'s [halted] reports
    {!tripped}, which {!Load.run}'s clients poll to halt intake,
    failing the serve run mid-flight instead of at the final batch
    check.

    Monitor health is first-class telemetry in the deployment registry:
    [aso.monitor.lag_events] (gauge), [aso.monitor.events_checked] and
    [aso.monitor.scans_verified] (counters), and
    [aso.monitor.check_latency_s] (HDR histogram of per-event check
    cost) — all visible through the Prometheus exposition and the
    [--stats-every] console sampler. *)

type verdict = {
  violation : Obs.Monitor.violation;
  slice : Obs.Vclock.event list;
      (** happened-before message cone into the violating op, oldest
          first; [[]] when the causal log is off *)
  lag_events : int;  (** feed depth when the monitor tripped *)
  at : float;  (** service clock when the monitor tripped *)
}

type t

val create :
  ?mode:Obs.Monitor.mode ->
  ?causal:Obs.Vclock.recorder ->
  ?throttle:(unit -> unit) ->
  metrics:Obs.Metrics.t ->
  now:(unit -> float) ->
  n:int ->
  unit ->
  t
(** [mode] selects the checker pass (default [Atomic]); [causal] is the
    network's vector-clock recorder, enabling violation slices;
    [throttle] runs before every consumed event — a test hook to slow
    the monitor domain and exercise the lag bound. Registers the
    [aso.monitor.*] instruments in [metrics] (call before domains run,
    like all registration). *)

val start : t -> unit
(** Spawn the monitor domain. @raise Invalid_argument if running. *)

val push : t -> Obs.Monitor.event -> unit
(** Producer side: the history's observer. {b Ordering contract}:
    callers must serialize pushes and read each event's timestamp under
    the same lock (the service lock), so feed order agrees with
    timestamp order. Events pushed after the monitor tripped are
    discarded. *)

val stop : t -> verdict option
(** Drain the feed (every event already pushed is still checked, unless
    a violation trips the monitor first), join the domain, and return
    the final verdict. Call after every pusher has returned. *)

val tripped : t -> verdict option
(** Non-blocking; safe from any domain. [Some _] once a violation
    fired — {!Service.deployment}'s [halted] reads this, so
    {!Load.run} halts intake. *)

val lag : t -> int
(** Events pushed but not yet checked. *)

val events_checked : t -> int

val scans_verified : t -> int
(** Scan responses that passed the full per-scan pass so far. *)

val last_checked_age : t -> float
(** Seconds since the monitor last consumed an event — a stalled
    monitor domain shows as a growing age on the sampler line. *)

val pp_verdict : Format.formatter -> verdict -> unit
