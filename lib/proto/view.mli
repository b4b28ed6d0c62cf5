(** Views: sets of timestamps, i.e. sets of UPDATE operations.

    A "view" in the paper is a set of values; since every value has a
    unique timestamp, we represent a view as the set of timestamps and
    keep the value payloads in a per-node side store. This makes view
    comparison (the heart of the equivalence-quorum technique) a pure
    set operation, independent of the value type.

    Representation: per writer, a sorted run of int tags in an array
    that successive versions share (each version sees its own prefix),
    plus a persistent set of the tags inserted below the run's newest
    one; cardinalities are cached beside them, with a cached total and
    a lazy tag bound set by {!restrict}. Views are immutable values:
    a version once returned never changes, whatever is added to it or
    to its successors later. With [H] members and [w] writers, the
    queries an operation makes ({!count_le}, {!cardinal}, {!max_tag},
    {!latest_per_writer}, {!extract}) cost O(w · log H) and allocate
    nothing per member, so their cost does not grow with the history.
    Costs below name [k], the members above a tag bound; on the
    protocol's queries the bound is at or near the newest tag, so [k]
    is the handful of concurrent updates.

    Do not compare or hash views with the polymorphic primitives: the
    shared arrays hold cells a version does not own. Use {!equal}. *)

type t

val empty : t

val is_empty : t -> bool
(** O(1) on an unrestricted view, else O(w · log H). *)

val cardinal : t -> int
(** O(1) on an unrestricted view, else as {!count_le}. *)

val add : Timestamp.t -> t -> t
(** [add ts v] is [v] itself (physically) when [ts] is a member.
    Adding a writer's tag above its newest one to the version that
    extended that writer last allocates O(w) words: a fresh per-writer
    entry, the entries array and the view record, no copy of the
    members. An insert below a writer's newest tag is a set insert,
    O(log H), plus an occasional merge of those stragglers into the
    run: O(1) words amortized. Extending a version that another version
    has already extended copies that writer's run once, O(H). Adding above the bound of a restricted view
    first materialises it, O(w · log H + k). *)

val mem : Timestamp.t -> t -> bool
(** O(log H). *)

val union : t -> t -> t
(** O(H): restricted arguments are materialised first. *)

val equal : t -> t -> bool
(** O(H), as {!union}, plus O(log H) per straggler; on unrestricted
    views it allocates nothing per member. *)

val subset : t -> t -> bool
(** As {!equal}. *)

val elements : t -> Timestamp.t list
(** Ascending [(tag, writer)] order, O(w · H). {!fold} and {!iter}
    visit members in the same order. *)

val of_list : Timestamp.t list -> t
val fold : (Timestamp.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Timestamp.t -> unit) -> t -> unit

val comparable : t -> t -> bool
(** [comparable a b] iff [a ⊆ b] or [b ⊆ a] — the relation Lemmas 1 and 2
    establish for equivalence sets and good-lattice-operation views.
    O(H), as {!subset}. *)

val restrict : t -> max_tag:int -> t
(** [restrict v ~max_tag:r] is [v^{<= r}]: the members with tag [<= r].
    O(1): it only lowers the view's tag bound; the members above it stay
    stored and hidden. *)

val count_le : t -> max_tag:int -> int
(** [cardinal (restrict v ~max_tag)]: each writer's cached cardinality
    minus its members above the bound, counted by stepping upwards from
    the bound. O(w · (1 + k) · log H). *)

val max_tag : t -> int
(** Largest tag present; [0] for the empty view (tags start at 1).
    O(w · log H). *)

val latest_per_writer : t -> n:int -> Timestamp.t option array
(** Entry [j] is the highest-tag timestamp written by node [j], if any —
    the [extract] of Algorithm 1 modulo value lookup. O(w · log H). *)

val extract : t -> n:int -> value_of:(Timestamp.t -> 'v) -> 'v option array
(** Full [extract]: the snapshot vector, resolving values through the
    caller's store. O(w · log H) plus [n] lookups. *)

val pp : Format.formatter -> t -> unit
