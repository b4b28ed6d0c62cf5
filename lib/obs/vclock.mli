(** Vector clocks and the happened-before log.

    A vector clock over [n] nodes is an [n]-vector of event counters;
    node [i] ticks component [i] on every local event and merges
    (pointwise max, then tick) on every delivery. Clock order is the
    happened-before order: [leq a b] iff the event stamped [a] causally
    precedes (or equals) the event stamped [b].

    {!recorder} maintains one clock per node and a (optionally
    retention-bounded) log of stamped network events (send / deliver /
    drop / local). The
    simulator's network layer records into it; the log exports as a
    ShiViz-compatible causal log ({!to_shiviz}) and supports causal-cone
    queries ({!slice}) — the provenance of an online monitor violation
    is exactly the slice at the violating node's clock. *)

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
  idx : int;  (** position in the log, 0-based *)
  node : int;  (** node on whose timeline the event occurred *)
  kind : kind;
  flow : int;  (** message id tying a [Send] to its [Deliver]/[Drop];
                   [0] for [Local] events *)
  at : float;  (** virtual time *)
  vc : t;  (** the node's clock {e after} the event (private copy) *)
  label : string;  (** message kind / milestone name *)
}

type recorder

val recorder : ?cap:int -> n:int -> unit -> recorder
(** Fresh recorder over nodes [0..n-1], all clocks zero. The recorder is
    thread-safe and sharded per node: node [i]'s clock and log segment
    live under their own lock, so rt-backend domains recording for
    different nodes never contend (the sim pays one uncontended lock
    per event — negligible). Cross-node event order is preserved by a
    global index drawn under the shard lock.

    [cap] bounds how many events each node's log segment retains
    (newest win); omitted means unbounded. An rt load run records
    hundreds of thousands of events per second — retaining them all
    turns the recorder into a major-heap leak, and the violation
    forensics ({!slice}) only ever need the recent causal window.
    @raise Invalid_argument if [n <= 0] or [cap <= 0]. *)

val nodes : recorder -> int

val clock : recorder -> int -> t
(** Copy of node [i]'s current clock. *)

val record_send :
  recorder -> src:int -> dst:int -> at:float -> ?label:string -> unit ->
  int array
(** Tick [src]'s clock and log the send. Returns the stamp that must
    travel with the message and be handed back to {!record_deliver} (or
    {!record_drop}): one fresh array of [nodes r + 1] ints, the sender's
    clock after the send followed by the flow id (positive, unique
    within the recorder). One array keeps the per-message cost of
    stamping to a single small allocation. *)

val stamp_flow : int array -> int
(** The flow id of a stamp from {!record_send}: its last component. *)

val record_deliver :
  recorder -> dst:int -> src:int -> stamp:int array -> at:float ->
  ?label:string -> unit -> unit
(** Merge the clock part of [stamp] into [dst]'s clock, tick, and log the
    delivery under the stamp's flow id. Allocates nothing on a capped
    recorder. *)

val record_drop :
  recorder -> dst:int -> src:int -> stamp:int array -> at:float ->
  ?label:string -> unit -> unit
(** Log a suppressed delivery (crashed receiver) under the stamp's flow
    id. Does not touch the receiver's clock: a dropped message is
    causally inert. *)

val record_local :
  recorder -> node:int -> at:float -> string -> unit
(** Tick [node]'s clock and log a local milestone named by the string. *)

val events : recorder -> event list
(** The log, oldest first (the retained window, when [cap] was given). *)

val length : recorder -> int
(** Events recorded so far. *)

val happened_before : event -> event -> bool
(** [happened_before a b] iff [a]'s stamp is strictly below [b]'s —
    irreflexive (qcheck'd in [test/test_causal.ml]). *)

val slice : recorder -> vc:t -> event list
(** The causal cone at [vc]: every [Send]/[Deliver] event whose stamp is
    pointwise [<= vc], oldest first. For a monitor violation observed at
    node [i], [slice r ~vc:(clock r i)] is the happened-before message
    chain into the violating op — the provenance handed to [lib/mc]
    shrink/replay. [Local] and [Drop] events are elided: they carry no
    inter-node causality. *)

val cone : recorder -> node:int -> event list
(** The provenance of a monitor violation attached to [node]: {!slice}
    at [node]'s clock, or, when [node] is out of range (a violation
    with no single timeline, e.g. [node = -1]), at the join of every
    node's clock. Both online monitors (the sim runner's and rt's live
    one) build their violation slices with this. *)

val pp_event : Format.formatter -> event -> unit

val to_shiviz : recorder -> string
(** ShiViz-compatible causal log, one line per event — host, then the
    clock as a JSON object keyed by host names (zero components
    elided), then a description. Parse in ShiViz with the standard
    one-line parser regexp: named groups "host", "clock" (the
    brace-delimited JSON), and "event" (rest of line), separated by
    single spaces. *)
