(** Deterministic discrete-event engine with virtual time.

    The engine is the paper's "outside viewer with a global clock": the
    algorithms under simulation never read [now] — only the harness and
    the analysis do. One unit of virtual time is whatever the delay model
    makes it; with {!Delay.fixed}[ 1.0] a time unit is exactly [D], the
    maximum message delay, which is the measure used throughout the
    paper's complexity claims. *)

type t

exception Deadlock of string
(** Raised by {!run_until_quiescent} when fibers registered with
    {!add_blocking} are still suspended but no event can ever wake them. *)

val create : ?seed:int64 -> unit -> t
(** Fresh engine at time [0.]. [seed] (default [1L]) feeds {!rng}. *)

val now : t -> float
(** Current virtual time. *)

val rng : t -> Rng.t
(** Engine-owned generator; use {!Rng.split} to derive per-concern
    streams. *)

val steps : t -> int
(** Engine steps (handler/fiber resumptions) executed over the engine's
    lifetime — the discrete-event analogue of instructions retired. *)

val time_advances : t -> int
(** Times the virtual clock moved strictly forward. With
    {!Delay.fixed}[ 1.0] this counts the distinct delivery instants the
    execution visited. *)

val trace : t -> Obs.Trace.t
(** The engine's trace — {!Obs.Trace.noop} unless the harness attached
    one. Components capture it at creation time; tracing never perturbs
    the schedule (no RNG draws, no event-queue interaction). *)

val set_trace : t -> Obs.Trace.t -> unit
(** Attach a trace. Call before constructing the components that should
    emit into it — they capture the engine's trace when created. *)

val causal : t -> Obs.Vclock.recorder option
(** The attached vector-clock recorder, if any. Networks capture it at
    creation time and log every send/deliver into it; like tracing it
    is passive — recording never perturbs the schedule. *)

val set_causal : t -> Obs.Vclock.recorder option -> unit
(** Attach a vector-clock recorder. Call before constructing networks —
    they capture it when created (and only adopt it when its node count
    matches theirs). *)

val chooser : t -> (Label.choice -> int) option
(** The installed controllable scheduler, if any. Components with their
    own nondeterminism (the lossy link's fault draws) consult it so that
    a model checker controls {e every} random decision of a run. *)

val set_chooser : t -> (Label.choice -> int) option -> unit
(** Install (or remove) a controllable scheduler. With a chooser
    present, each pop of the event queue at a state with [>= 2]
    same-timestamp events becomes a {!Label.Tie} choice point, and the
    lossy link replaces its RNG fault draws with {!Label.Link_fault}
    choices. Passing a chooser that always answers [0] reproduces the
    default FIFO schedule exactly. *)

val choose : t -> Label.choice -> int
(** Route a choice point through the installed chooser ([0] when none),
    validating the returned index against {!Label.domain}.
    @raise Invalid_argument on an out-of-range answer. *)

val add_on_step : t -> (int -> unit) -> unit
(** Register a hook called with the engine-lifetime index of every step
    just before it executes — the model checker's crash-injection sites
    ("crash node [i] before step [s]"). Hooks persist for the engine's
    lifetime. *)

val schedule : ?label:Label.t -> t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at time [now t +. delay].
    Requires [delay >= 0.]. [label] (default {!Label.Opaque}) tells the
    controllable scheduler what the event acts on. *)

val push_runnable : t -> (unit -> unit) -> unit
(** Enqueue [f] to run at the current time, after already-queued
    runnables. Used by the fiber scheduler for wakeups. *)

val run : ?until:float -> ?max_steps:int -> t -> unit
(** Process events in timestamp order until the queue is empty, the next
    event lies beyond [until], or [max_steps] events have run.
    [max_steps] (default 50 million) guards against livelock in broken
    protocols: exceeding it raises [Failure]. *)

val run_until_quiescent : ?max_steps:int -> t -> unit
(** Like {!run} with no time bound, but raises {!Deadlock} if blocking
    fibers remain suspended when the event queue drains — the simulation
    equivalent of a protocol that fails to terminate. *)

val add_blocking : t -> unit
val remove_blocking : t -> unit
(** Reference count of fibers whose completion the harness insists on
    (client operations at non-crashed nodes). {!Fiber.spawn} does the
    bookkeeping; protocols do not call these directly. *)

val blocked_count : t -> int
(** Number of outstanding {!add_blocking} registrations. *)
