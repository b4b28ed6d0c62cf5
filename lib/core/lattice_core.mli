(** Multi-shot lattice machinery of Algorithm 1: tags, the
    [readTag]/[writeTag] quorum phases, the {!lattice} operation, and
    {!lattice_renewal} with view borrowing.

    EQ-ASO and SSO-Fast-Scan are thin layers over this module: they share
    every message handler and differ only in how UPDATE/SCAN compose the
    pieces. The notes below record the two places where the conference
    pseudocode is under-specified and the reading we implement:

    - {b writeTag acks} (lines 43–46): the ack to the writer is sent
      unconditionally, not only when the tag is new — otherwise a writer
      whose tag is already known to [> f] nodes would block forever. The
      echo is sent only for a strictly larger tag, as written.
    - {b borrowed views} (line 49 / line 29): views delivered by
      ["goodLA"] messages are stored {e per tag} (first arrival wins),
      so a later good lattice operation by the same sender cannot
      overwrite the view a pending [LatticeRenewal] is about to borrow.
      This implements the pseudocode's atomicity note directly. *)

module Msg : sig
  type 'v t =
    | Value of { ts : Timestamp.t; value : 'v }
    | Read_tag of { req : int }
    | Read_ack of { req : int; tag : int }
    | Write_tag of { req : int; tag : int }
    | Write_ack of { req : int }
    | Echo_tag of { tag : int }
    | Good_la of { tag : int }
    | Recover_pull of { req : int }
        (** rejoin state-transfer request from a restarted node *)
    | Recover_push of {
        req : int;
        entries : (Timestamp.t * 'v) list;
        max_tag : int;
      }
        (** full-state reply: every (timestamp, value) the sender has
            seen, plus its tag watermark *)

  val kind : 'v t -> string
  (** Wire-protocol message name as in the paper's pseudocode, for
      tracing and per-kind message accounting. *)
end

type 'v node

type 'v t

(** Seeded protocol bugs for mutation-sensitivity testing of the model
    checker (test-only; see {!set_mutation}):
    - [Quorum_off_by_one]: every quorum wait uses [n - f - 1] acks;
    - [Skip_write_tag]: {!lattice} omits the [writeTag] round, so tags
      never propagate and equivalence is judged on stale view bounds;
    - [Stale_renewal]: {!lattice_renewal} retries at the tag that just
      failed instead of the refreshed [maxTag]. *)
type mutation = Quorum_off_by_one | Skip_write_tag | Stale_renewal

(** Counters for the ablation benches: how often renewals resolve
    directly vs. by borrowing, and how many lattice operations ran. *)
type stats = {
  mutable lattice_ops : int;
  mutable good_lattice_ops : int;
  mutable direct_views : int;
  mutable indirect_views : int;
}

val create : Sim.Engine.t -> n:int -> f:int -> delay:Sim.Delay.t -> 'v t
(** Simulator deployment: builds a {!Sim.Network.t} and wires the
    protocol onto it through {!create_on}; the concrete network stays
    reachable via {!net} for the sim-only layers (chaos, model checker,
    crash injection). Requires [n > 2f]. *)

val create_on : 'v Msg.t Backend.net -> f:int -> 'v t
(** Backend-generic deployment: wires handlers, conditions and metrics
    counters onto any {!Backend.net} — the simulator adapter
    ({!Backend_sim.net}) or the rt backend's real-domain network.
    Requires [Backend.n > 2f]. *)

val n : _ t -> int
val f : _ t -> int

val backend : 'v t -> 'v Msg.t Backend.net
(** The engine surface this deployment runs on. *)

val net : 'v t -> 'v Msg.t Sim.Network.t
(** The concrete simulator network under a {!create}-built deployment.
    @raise Invalid_argument on a deployment built by {!create_on} over a
    non-simulator backend. *)

val node : 'v t -> int -> 'v node
val node_id : _ node -> int
val stats : _ t -> stats

val node_lattice_count : _ node -> int
(** Lattice operations this node has run, ever. An operation diffs it
    around its own execution to measure rounds-per-op (the quantity the
    paper bounds by O(1) failure-free and O(min(k, sqrt k + c)) under
    failure chains). *)

val trace : _ t -> Obs.Trace.t
(** The backend's trace (the engine trace on sim, {!Obs.Trace.noop} on
    rt). *)

val now : _ t -> float
(** The backend clock — virtual time on sim, monotonic seconds since
    deployment start on rt — for stamping trace events and histories. *)

val span :
  'v t -> 'v node -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** [span t nd name f] runs [f] inside a trace span on [nd]'s track
    (default [cat] is ["phase"]; operations pass [~cat:"op"]). A no-op
    wrapper when tracing is disabled; the span is closed on exceptions
    too. *)

val span_tag : 'v t -> 'v node -> string -> int -> (unit -> 'a) -> 'a
(** [span_tag t nd name tag f]: {!span} with [("tag", Int tag)] on its
    begin, the argument list built only when tracing is on. *)

val begin_op : _ node -> unit
(** Marks the node busy. @raise Invalid_argument if an operation is
    already pending (nodes are sequential, Section II-A). *)

val end_op : _ node -> unit

val read_tag : 'v t -> 'v node -> int
(** [readTag()]: broadcast, await [n - f] acks, return the largest tag
    seen (lines 35–37). Blocking. *)

val max_tag : _ node -> int
(** The node's current [maxTag]. *)

val fresh_timestamp : 'v t -> 'v node -> int -> Timestamp.t
(** [fresh_timestamp t node r] is [<r + 1, id>] (line 5). *)

val broadcast_value : 'v t -> 'v node -> Timestamp.t -> 'v -> unit
(** Line 6: record the value as seen locally and send it to all. *)

val lattice : 'v t -> 'v node -> int -> bool * View.t
(** [Lattice(r)] (lines 14–21): write the tag, await [EQ(V^{<=r}, i)],
    then return [(true, equivalence set)] and announce ["goodLA"] if no
    larger tag was observed, or [(false, empty)] otherwise. Blocking. *)

val lattice_renewal : 'v t -> 'v node -> int -> View.t
(** [LatticeRenewal(r)] (lines 22–30): at most three lattice operations,
    then borrow an indirect view if all failed. Blocking. *)

val extract : 'v t -> 'v node -> View.t -> 'v option array
(** Lines 31–34, resolving payloads through the node's store. *)

val my_view : 'v node -> View.t
(** The node's current [V\[i\]] (Definition 9's node view). *)

val kernel : 'v node -> 'v Eq_kernel.t

val set_good_view_hook : 'v node -> (View.t -> unit) -> unit
(** Observe every good-lattice-operation view the node learns of through
    ["goodLA"] messages (all such views are mutually comparable —
    Lemma 2). At most one hook per node; used by {!Sso}. *)

(** {2 Crash recovery}

    A node with a durable store writes every mint to a write-ahead log
    ({!broadcast_value} appends {e before} broadcasting) and can come
    back from a crash under the same id: {!begin_recovery} resets the
    volatile state, then {!recover} — run as an ordinary blocking
    operation — replays the log, pulls a quorum's state, fences the mint
    watermark and runs one renewal, after which the node serves again.
    Restart is {e not} resurrection: operations pending at the crash are
    gone for good (the harness reports them aborted), and the mint fence
    guarantees the new incarnation never re-issues a timestamp. *)

val set_store : 'v node -> 'v Persist.Store.t -> unit
(** Attach the node's durable store. Without one the node is volatile
    and {!begin_recovery} raises [Invalid_argument]. *)

val store : 'v node -> 'v Persist.Store.t option

val recovering : _ node -> bool
(** True between {!begin_recovery} and the completion of {!recover};
    the node must not be offered operations while it holds. *)

val begin_recovery : 'v t -> 'v node -> unit
(** Synchronous part of a restart: append a [Restart] record (making
    the new epoch durable), bump the incarnation (parking every fiber of
    the old one forever via the generation guard), and reset kernel,
    collectors, tag watermark and borrowed views. Runs in the restart
    event itself, before any message reaches the revived node.
    @raise Invalid_argument without a store. *)

val recover : 'v t -> 'v node -> View.t
(** Blocking part of a restart (run it in a fresh fiber / the node's
    own execution context): log replay with re-announcement, quorum
    state pull, mint-fence [writeTag], one {!lattice_renewal}. Returns
    the renewal's view (the SSO seeds its fast-scan cache from it) and
    clears {!recovering} — also on exception. *)

val set_mutation : 'v t -> mutation option -> unit
(** Install (or clear) a seeded bug. A test-only knob: the
    mutation-sensitivity suite proves bounded exploration actually
    detects each mutant; production paths never set it. *)

val mutation : _ t -> mutation option

val set_borrowing : 'v t -> bool -> unit
(** Ablation switch for technique (T2), default on. With borrowing off,
    a renewal that fails three lattice operations keeps retrying at
    fresh tags instead of adopting an indirect view — correct, but a
    slow node racing fast writers loses the amortized-constant bound
    (the ablation bench shows its scan latency growing with the write
    rate). *)
