(** The equivalence-quorum kernel (Section III-C).

    Per-node state and logic shared by every algorithm in the framework:
    the vector of views [V] (where [V.(j)] is this node's view of what
    node [j] has learned, maintained through proactive forwarding over
    FIFO channels), the value store, and a blocking wait for the
    predicate [EQ(V, i)] — optionally restricted to tags [<= r] for the
    multi-shot algorithms.

    The kernel is transport-agnostic {e and} backend-agnostic: the owner
    supplies a [forward] callback (invoked exactly once per value seen
    for the first time, implementing lines 41–42 of Algorithm 1) and a
    {!Backend.condition} that the owner signals after each handler runs
    — a simulator condition variable ([Aso_core.Backend_sim.condition])
    or the rt backend's mailbox-pumping wait. The kernel itself touches
    no engine API.

    Invariant maintained (and relied upon by {!await_eq}):
    [V.(j) ⊆ V.(i)] for the local node [i] and every [j], because every
    insertion into [V.(j)] inserts into [V.(i)] in the same atomic
    handler. Equality [V.(j)^{<=r} = V.(i)^{<=r}] therefore reduces to a
    cardinality comparison. {!await_eq} takes its starting counts from
    {!View.count_le} (O(n · w · log H) per await for [w] writers and [H]
    members, independent of the history when few members lie above
    [r]); from then on every view insertion bumps the pending await's
    count in O(1), and the predicate only compares [n] integers. *)

type 'v t

val create :
  n:int ->
  me:int ->
  forward:(Timestamp.t -> 'v -> unit) ->
  changed:Backend.condition ->
  'v t
(** [changed] must be signalled by the owner whenever node state may have
    changed (typically once at the end of every message handler). *)

val me : _ t -> int

val local_insert : 'v t -> Timestamp.t -> 'v -> unit
(** Record a value this node itself originates, before broadcasting it:
    marks it seen (so the node will not re-forward its own broadcast
    echo) {e without} adding it to any view — the view additions happen
    when the node's own copy of the message is delivered, as in the
    pseudocode. *)

val receive : 'v t -> src:int -> Timestamp.t -> 'v -> unit
(** Handler for a ["value"] message: adds the timestamp to [V.(src)] and
    [V.(me)], stores the payload, and calls [forward] if first sighting
    (lines 40–42). *)

val view : 'v t -> int -> View.t
(** [view t j] is [V.(j)]. *)

val my_view : 'v t -> View.t
(** [V.(me)] — the node's own view. *)

val value_of : 'v t -> Timestamp.t -> 'v
(** Payload lookup. @raise Not_found if the timestamp was never seen
    (cannot happen for members of any [view t j]). *)

val knows : 'v t -> Timestamp.t -> bool

val await_eq :
  ?must_contain:Timestamp.t list ->
  'v t ->
  quorum:int ->
  max_tag:int option ->
  View.t
(** Block the calling fiber until [EQ(V^{<=r}, me)] holds with an
    equivalence quorum of size [>= quorum] ([r] = [max_tag], or no
    restriction when [None]); return the equivalence set
    [V.(me)^{<=r}]. [must_contain] additionally requires the listed
    timestamps to be in the local view first — lattice agreement uses it
    so a proposer cannot decide on the vacuously-equal empty views before
    its own proposal has even self-delivered. Must run in operation
    context (a fiber on Sim, the node's own domain on Rt). *)

val eq_holds : 'v t -> quorum:int -> max_tag:int option -> bool
(** One-off (non-incremental) evaluation of the predicate, by set
    equality of the restricted views (O(n · H)): the reference the tests
    compare {!await_eq}'s counters against. *)
