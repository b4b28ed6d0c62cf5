(** A protocol node as an OCaml 5 domain with a lock-free mailbox.

    One {!Queue} MPSC mailbox, one domain running {!run}. The mailbox
    carries three kinds of items: network messages (dispatched to the
    installed handler), operation thunks ([Work], posted by the service
    front-end), and [Stop]. The execution contract mirrors the
    simulator's: handlers are atomic (one mailbox item at a time, on the
    node's own domain), and operation code interleaves with handlers
    only inside {!await}, which pumps the mailbox itself while its
    predicate is false — so a blocked UPDATE keeps acking other nodes'
    quorum phases, exactly like a simulator fiber parked on a condition
    while the engine delivers messages.

    {b Crash = poisoned mailbox}: {!crash} marks the node, after which
    {!post} drops everything and the next blocking receive raises
    {!Crashed}, unwinding whatever operation was running. The domain's
    run loop catches it and exits; the node never speaks again. *)

exception Crashed
(** Raised by a blocking receive on a poisoned (crashed) node, and by
    {!await} on a [Stop]; unwinds the operation running on the node's
    domain. *)

type 'm item =
  | Net of { src : int; msg : 'm; flow : int }
      (** [flow] rides next to the payload: the {!Obs.Vclock.record_send}
          flow id pairing this send with its delivery, or [0] when
          causal logging is off. Protocol message types stay untouched —
          this mirrors the sim transport's out-of-band flow ids. *)
  | Work of (unit -> unit)
  | Stop

type 'm t

val create : int -> 'm t
(** A node whose domain sleeps on an empty mailbox by spinning briefly,
    then registering on a {!Park} eventcount: producers pay one atomic
    read per post while the node is awake. *)

val id : _ t -> int

val set_handler : 'm t -> (src:int -> 'm -> unit) -> unit
(** Install the message handler. Must happen before {!start}. *)

val set_on_deliver : 'm t -> (src:int -> int -> unit) -> unit
(** Install the delivery observer: called on the node's own domain just
    before the handler, for every [Net] item with a flow id ([> 0]),
    with that id. Must happen before {!start}. {!Net} uses it to log
    the delivery in the causal log, from the receiver's domain (the
    shard's single writer). *)

val set_telem : 'm t -> Telem.node option -> unit
(** Attach this node's flight-recorder ring. Must happen before
    {!start}: the ring is written from the node's domain (park-wait
    instants and depth samples after each park, a depth sample every
    64th receive besides), honouring the recorder's single-writer
    contract. *)

val post : 'm t -> 'm item -> bool
(** Enqueue from any domain; wakes the node if parked. [false] if the
    node is crashed (the item is dropped — a crashed node receives
    nothing). *)

val await : 'm t -> (unit -> bool) -> unit
(** Node-domain only: block until the predicate holds, running message
    handlers and deferring [Work] in the meantime.
    @raise Crashed if the node is poisoned, or [Stop] arrives, while
    waiting: the operation ends as a crash ends it. *)

val crash : 'm t -> unit
(** Poison the mailbox and wake the domain so it observes the crash even
    if idle. Callable from any domain; idempotent. *)

val is_crashed : _ t -> bool

val run : 'm t -> unit
(** The node loop: handle messages, run work thunks (draining any work
    deferred by their awaits, FIFO), exit on [Stop] or {!Crashed}.
    Exposed for tests; normal use is {!start}/{!join}. *)

val start : 'm t -> unit
(** Spawn the node's domain running {!run}. *)

val join : 'm t -> unit
(** Wait for the node's domain to exit (after [Stop] was posted or the
    node crashed). Idempotent. *)

val restart : 'm t -> unit
(** Revive a crashed node: join its dead domain, drain the mailbox and
    deferred work (the old incarnation's channel state — lost in the
    crash), unpoison, and spawn a fresh domain running {!run} with the
    handler still installed. The caller is responsible for resetting
    protocol-level volatile state {e before} calling this — once the new
    domain is up, messages flow again.
    @raise Invalid_argument if the node is not crashed. *)
