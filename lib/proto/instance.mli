(** A running snapshot-object deployment behind a uniform face.

    Each algorithm (EQ-ASO, the SSO, every baseline, the Byzantine
    variant) wires [n] nodes onto its own network and exposes this
    record, so the harness, the examples, and the benchmarks drive them
    all identically. [update]/[scan] block the calling fiber until the
    operation's response, as in the paper's client-thread model. *)

type net_stats = {
  sent : int;  (** logical messages handed to the network *)
  delivered : int;  (** logical messages delivered to handlers *)
  wire_sent : int;  (** wire packets incl. acks, retransmits, duplicates *)
  wire_delivered : int;
  wire_lost : int;  (** eaten by the lossy link *)
  wire_cut : int;  (** dropped at a partition boundary *)
  retransmits : int;
  acks : int;
  duplicated : int;
  reordered : int;
}
(** Message accounting at both layers. On the ideal substrate wire
    counts equal logical counts and the fault counters are zero. *)

val overhead_factor : net_stats -> float
(** [wire_sent / sent]: how many wire packets each logical message cost
    (1.0 on the ideal substrate; grows with loss via retransmissions and
    acks). *)

type 'v t = {
  name : string;
  n : int;
  f : int;
  update : int -> 'v -> unit;  (** [update node v]; must run in a fiber *)
  scan : int -> 'v option array;  (** [scan node]; must run in a fiber *)
  crash : int -> unit;
  crash_during_next_broadcast : int -> deliver_to:int list -> unit;
  crash_on_next_value : ?writer:int -> int -> deliver_to:int list -> unit;
      (** Arm the Definition 11 adversary: the node crashes while
          broadcasting its next {e value-carrying} message (an UPDATE's
          send-to-all or a first-sighting forward), reaching only the
          given destinations. [writer] narrows the trigger to values
          originally written by that node — a failure chain relays one
          specific value, and its members must not burn their crash on
          forwarding an innocent bystander's value. Protocol-specific
          message matching is supplied by each algorithm. *)
  is_crashed : int -> bool;
  on_crash : (int -> unit) -> unit;
  restart : int -> unit;
      (** Revive a crashed node under the same id: reset volatile state,
          replay the durable log, rejoin (quorum state pull + mint
          fence + one renewal), then serve again. Pre-crash pending
          operations are aborted, never resurrected — a restart issues
          {e new} invocations only. Algorithms without a persistence
          layer raise [Invalid_argument]. *)
  is_recovering : int -> bool;
      (** True from the moment of {!restart} until the node's recovery
          completed and it can serve operations again. *)
  on_restart : (int -> unit) -> unit;
      (** Callback invoked when a node restarts (before its recovery has
          completed); the harness uses it to abort the node's pre-crash
          pending operations and schedule post-restart traffic. *)
  messages : unit -> int;
  partition : int list list -> unit;
      (** Split the deployment's link layer into isolated groups (chaos
          adversaries). Raises [Invalid_argument] on the ideal
          substrate, where there is no link layer to cut. *)
  heal : unit -> unit;  (** Remove the partition. *)
  set_link_faults : Chan.faults -> unit;
      (** Set the link-layer loss/duplication/reordering rates. Raises
          [Invalid_argument] on the ideal substrate. *)
  net_stats : unit -> net_stats;
  metrics : unit -> Obs.Metrics.snapshot;
      (** Snapshot of the deployment's metrics registry: network/wire
          counters plus whatever protocol counters and histograms the
          algorithm registered (quorum phases, lattice renewals,
          rounds-per-operation, ...). *)
  dump_net : Format.formatter -> unit;
      (** Diagnostic dump of the network (and, on the lossy stack, the
          per-node transport channel state). *)
}
