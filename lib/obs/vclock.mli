(** Vector clocks and the happened-before log.

    A vector clock over [n] nodes is an [n]-vector of event counters;
    node [i] ticks component [i] on every local event and merges
    (pointwise max, then tick) on every delivery. Clock order is the
    happened-before order: [leq a b] iff the event stamped [a] causally
    precedes (or equals) the event stamped [b].

    {!recorder} keeps a (optionally retention-bounded) log of network
    events (send / deliver / drop / local) per node, each tied to its
    message by a flow id. No clock is kept while recording: the readers
    rebuild every event's clock by replaying the log. The simulator's
    network layer and the rt backend record into it; the log exports as
    a ShiViz-compatible causal log ({!to_shiviz}) and supports
    causal-cone queries ({!slice}, {!cone}) — the provenance of an
    online monitor violation is exactly the cone at the violating
    node's clock. *)

type t
(** A vector clock. Immutable from the outside; {!tick} and {!merge_into}
    mutate, the rest are pure. *)

val make : int -> t
(** All-zero clock over [n] components. @raise Invalid_argument if
    [n <= 0]. *)

val of_array : int array -> t
(** Clock with the given components (copied). *)

val to_array : t -> int array
(** Components, as a fresh array. *)

val size : t -> int

val copy : t -> t

val get : t -> int -> int

val tick : t -> int -> unit
(** [tick c i] increments component [i] in place. *)

val merge_into : src:t -> dst:t -> unit
(** Pointwise max of [src] into [dst], in place. Sizes must agree. *)

val join : t -> t -> t
(** Pure pointwise max. Commutative, associative, idempotent — the
    lattice join qcheck'd in [test/test_causal.ml]. *)

val leq : t -> t -> bool
(** Pointwise [<=]: the (reflexive) happened-before order. *)

val equal : t -> t -> bool

val compare_vc : t -> t -> [ `Equal | `Before | `After | `Concurrent ]

val pp : Format.formatter -> t -> unit

(** {1 The causal event log} *)

type kind =
  | Send of { dst : int }
  | Deliver of { src : int }
  | Drop of { src : int }  (** delivery suppressed: receiver crashed *)
  | Local  (** node-local milestone: crash, op begin/end, ... *)

type event = {
  idx : int;  (** position in the replay order, 0-based *)
  node : int;  (** node on whose timeline the event occurred *)
  kind : kind;
  flow : int;  (** message id tying a [Send] to its [Deliver]/[Drop]:
                   [k·n + src + 1] for the sender's [k]-th send, so
                   [(flow - 1) mod n] names the sender; [0] for [Local]
                   events *)
  at : float;  (** virtual time on the sim, wall seconds on rt *)
  vc : t;  (** the node's clock {e after} the event (private copy) *)
  label : string;  (** message kind / milestone name *)
}

type recorder

val recorder : ?cap:int -> n:int -> unit -> recorder
(** Fresh recorder over nodes [0..n-1]. One shard per node, each with
    {b one writer at a time}: node [i]'s events must all be recorded by
    the thread acting as node [i] (its domain on rt, the engine on the
    sim). A record takes no lock and touches no other shard. A shard
    starts small; on a capped recorder it takes all [cap] slots at its
    first overflow, and from then on a record allocates nothing.
    The readers below may run on any
    other thread while the writers write (the {!Recorder.Cursor}
    reserve / publish scheme discards slots overwritten mid-read).

    [cap] bounds how many events each node's shard retains (newest
    win); omitted means unbounded. An rt load run records hundreds of
    thousands of events per second — retaining them all turns the
    recorder into a major-heap leak, and the violation forensics
    ({!cone}) only ever need the recent causal window.
    @raise Invalid_argument if [n <= 0] or [cap <= 0]. *)

val nodes : recorder -> int

val record_send :
  recorder -> src:int -> dst:int -> at:float -> ?label:string -> unit -> int
(** Log the send on [src]'s shard and return its flow id (positive,
    unique within the recorder), which travels with the message and is
    handed back to {!record_deliver} (or {!record_drop}). *)

val record_deliver :
  recorder -> dst:int -> src:int -> flow:int -> at:float ->
  ?label:string -> unit -> unit
(** Log the delivery of message [flow] on [dst]'s shard. *)

val record_send_ns : recorder -> src:int -> dst:int -> ns:int -> int
(** {!record_send} at [at = float ns *. 1e-9] seconds, unlabelled. A
    float argument is boxed on every call; an int is not, which is what
    rt's per-message path wants. *)

val record_deliver_ns :
  recorder -> dst:int -> src:int -> flow:int -> ns:int -> unit
(** {!record_deliver} at [float ns *. 1e-9] seconds, unlabelled. *)

val record_drop :
  recorder -> dst:int -> src:int -> flow:int -> at:float ->
  ?label:string -> unit -> unit
(** Log a suppressed delivery (crashed receiver) of message [flow] on
    [dst]'s shard. A dropped message is causally inert: the replay
    neither merges nor ticks for it (the event happens at a crashed
    node, off its timeline). *)

val record_local :
  recorder -> node:int -> at:float -> string -> unit
(** Log a local milestone named by the string on [node]'s shard. *)

val length : recorder -> int
(** Events recorded so far (including those no longer retained). *)

(** {2 Reading}

    Every reader copies each shard's retained window and replays the
    windows in a causal order: each node's events in the order it
    recorded them, a [Deliver] after its [Send] whenever that [Send] is
    retained, ties broken by ([at], node). The replay rebuilds the
    clocks: every event but a [Drop] ticks its node's component, and a
    [Deliver] first merges the clock its sender had at the matching
    [Send].

    On an unbounded recorder (the sim) the clocks are exact: [leq] on
    them is happened-before over the whole run. On a capped recorder
    they are computed within the retained window: clocks start at zero
    at the window's start, and a [Deliver] whose [Send] is no longer
    retained merges nothing, so [happened_before] is exact for the
    graph of retained events (program order plus retained
    send-to-deliver edges), not for the whole run. In both cases
    [Drop]s are off the graph: a [Drop] carries the clock of its node's
    previous event. Each call replays
    afresh, so [idx] and [vc] from two calls on a recorder that is
    still being written may differ; {!cone} takes its clock and its
    events from one replay. *)

val clock : recorder -> int -> t
(** Node [i]'s clock after its last retained event. *)

val events : recorder -> event list
(** The retained log in replay order ([idx] = 0, 1, ...). *)

val happened_before : event -> event -> bool
(** [happened_before a b] iff [a]'s clock is strictly below [b]'s —
    irreflexive (qcheck'd in [test/test_causal.ml]). *)

val slice : recorder -> vc:t -> event list
(** The causal cone at [vc]: every [Send]/[Deliver] event whose clock
    is pointwise [<= vc], in replay order. [vc] must come from the same
    log (e.g. {!clock}) with no writes in between, which always holds
    on the sim. [Local] and [Drop] events are elided: they carry no
    inter-node causality. *)

val cone : recorder -> node:int -> event list
(** The provenance of a monitor violation attached to [node]: {!slice}
    at [node]'s clock, both from one replay, or, when [node] is out of
    range (a violation with no single timeline, e.g. [node = -1]), at
    the join of every node's clock. Both online monitors (the sim
    runner's and rt's live one) build their violation slices with this;
    rt's calls it on the monitor domain while the nodes still write. *)

val pp_event : Format.formatter -> event -> unit

val to_shiviz : recorder -> string
(** ShiViz-compatible causal log, one line per event — host, then the
    clock as a JSON object keyed by host names (zero components
    elided), then a description. Parse in ShiViz with the standard
    one-line parser regexp: named groups "host", "clock" (the
    brace-delimited JSON), and "event" (rest of line), separated by
    single spaces. *)
