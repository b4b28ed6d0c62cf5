(** A registry of named counters, gauges, and histograms.

    Each deployment (one network stack plus the algorithm wired onto it)
    owns one registry; components obtain their instruments once at
    creation time, so the hot path is a single unboxed mutable-field
    update — no hashing, no allocation. A {!snapshot} freezes the
    registry into plain data that can be {!merge}d across runs (counters
    add, gauges keep the max, histogram samples concatenate), which is
    how campaigns and benches aggregate per-run measurements into
    tables.

    Metric names are flat dotted strings (["link.wire_sent"],
    ["aso.rounds_per_update"]); registering a name twice returns the
    existing instrument, and registering it at a different kind is an
    error.

    {b Domain safety}: updates to registered instruments ({!incr},
    {!add}, {!set}, {!observe}) and {!snapshot} reads are safe from any
    domain — instrument state lives in [Atomic] cells (the rt backend
    updates them from every node's domain). Registration itself is not:
    register from one thread at a time. A {!snapshot} may run while
    another thread registers.

    A counter bumped from many domains on a hot path can instead give
    each writer its own cell ([counter ~writers] and {!incr_at}): no
    shared read-modify-write, and {!count}, {!snapshot} and the
    exposition read the sum. *)

type t
(** A registry. *)

type counter
type gauge
type histogram
type log_histogram

val create : unit -> t

val counter : ?writers:int -> t -> string -> counter
(** Find-or-create. [writers] (default 0) adds that many per-writer
    cells for {!incr_at}, each on its own cache lines.
    @raise Invalid_argument if [name] is registered as a different kind
    or with a different [writers]. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val log_histogram : t -> string -> log_histogram
(** Log-bucketed ({!Hdr}) histogram: fixed memory, ~3.1% bounded
    relative error, lock-free multi-domain recording. Prefer this over
    {!histogram} on high-volume rt paths — a sample-list histogram
    allocates per observation and keeps every sample alive. *)

val incr : counter -> unit
val add : counter -> int -> unit

val incr_at : counter -> int -> unit
(** [incr_at c w] bumps writer [w]'s cell ([0 <= w < writers]) with a
    plain load and store. Each cell must have one writer at a time;
    two threads bumping one cell concurrently can lose counts. *)

val count : counter -> int
(** The shared count plus every writer cell. *)

val counter_name : counter -> string

val set : gauge -> float -> unit
val level : gauge -> float
val gauge_name : gauge -> string

val observe : histogram -> float -> unit
val histogram_name : histogram -> string

val record : log_histogram -> float -> unit
(** Allocation-free; safe from any domain. *)

val log_histogram_name : log_histogram -> string

val hdr : log_histogram -> Hdr.t
(** The underlying histogram (for direct quantile reads). *)

(** {2 Snapshots} *)

type stat =
  | Count of int
  | Level of float
  | Samples of float list  (** observation order *)
  | Dist of Hdr.dist

type snapshot = (string * stat) list
(** Registration order. *)

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Union by name: counters add, gauges keep the max, histograms
    concatenate samples ([a]'s before [b]'s), log-histograms add
    bucket-wise. Order: [a]'s entries first, then names only in [b].
    @raise Invalid_argument if a name carries different kinds. *)

val sorted : snapshot -> snapshot
(** Canonical serialization order: entries stably name-sorted, sample
    order untouched. Identically-seeded runs produce byte-identical
    [sorted] snapshots regardless of registration interleaving — the
    form to use for on-disk exports (bench JSON) whose diffs should be
    stable. *)

val find : snapshot -> string -> stat option
val find_count : snapshot -> string -> int option
val find_samples : snapshot -> string -> float list option
val find_dist : snapshot -> string -> Hdr.dist option

type summary = { s_count : int; mean : float; min : float; max : float }

val summary : float list -> summary option
(** [None] on an empty sample list. *)

val pp_stat : Format.formatter -> stat -> unit
val pp_snapshot : Format.formatter -> snapshot -> unit
