(** Flight recorder: per-domain fixed-capacity rings of binary trace
    events, written allocation-free by the owning domain, drained and
    merged by a collector thread, exportable through the existing
    {!Trace} Perfetto pipeline.

    Contract: each ring has exactly {b one writer at a time} — the
    domain that owns it (ownership may pass hand-to-hand across a
    crash-restart, while the old domain is provably dead). Any thread
    may drain concurrently; a drain never blocks the writer, and slots
    the writer overwrites mid-drain are detected (two-cursor reserve /
    publish scheme) and discarded rather than returned torn. When the
    ring wraps, the oldest events are silently overwritten: the recorder
    always holds the freshest [capacity] events, which is the
    flight-recorder point.

    Event names are interned to small integer codes at setup time
    ({!intern}), before concurrent execution starts — the hot path
    carries only the code. *)

(** {2 Single-writer cursors}

    The reserve / publish pair every ring uses, exposed so other
    single-writer logs ({!Vclock}'s causal shards) share it. The writer
    calls [let i = reserve c in] ... fill slot [i mod cap] ...
    [publish c i]; a reader copies indices [[max 0 (published c - cap),
    published c)] and then keeps only those [>= intact_from c ~cap]. *)
module Cursor : sig
  type t

  val create : unit -> t
  (** Both cursors at 0, each on its own cache lines. *)

  val reserve : t -> int
  (** Writer only: claim the next index. From this call on, readers
      treat the slot it aliases as suspect. *)

  val publish : t -> int -> unit
  (** Writer only: index [i] (from {!reserve}) is complete. *)

  val published : t -> int
  (** Completed indices so far (any thread). *)

  val intact_from : t -> cap:int -> int
  (** Any thread, {e after} copying: indices below this may have been
      overwritten while they were copied. *)
end

type t
type ring

type kind =
  | Span_begin
  | Span_end
  | Instant
  | Counter

val create : ?capacity:int -> n:int -> unit -> t
(** [n] rings (one per domain/node) of [capacity] slots each
    (default 8192). *)

val rings : t -> int
val ring : t -> int -> ring
val capacity : ring -> int

val intern : t -> ?cat:string -> string -> int
(** Register (or find) an event name; returns its code. Call only
    during setup — the vocabulary is read-only once domains run. *)

val code_name : t -> int -> string
val code_cat : t -> int -> string

(** {2 Writer path — owning domain only, allocation-free} *)

val span_begin : ring -> code:int -> ts:float -> unit
val span_end : ring -> code:int -> ts:float -> unit
val instant : ring -> code:int -> ts:float -> value:float -> unit
val counter : ring -> code:int -> ts:float -> value:float -> unit

val emitted : ring -> int
(** Events ever written (monotone; not capped by capacity). *)

val overwritten : ring -> int
(** Events lost to wrap-around: [max 0 (emitted - capacity)]. *)

(** {2 Collector — any thread} *)

type event = {
  e_seq : int;  (** per-ring emission index; gaps mean overwritten *)
  e_pid : int;
  e_ts : float;
  e_kind : kind;
  e_code : int;
  e_value : float;
}

val drain_ring : ring -> event list
(** The ring's current complete events, oldest first. Concurrent with
    the writer: events overwritten mid-drain are dropped, never torn. *)

val events : t -> event list
(** All rings drained and merged, timestamp-sorted. *)

val total_emitted : t -> int
val total_overwritten : t -> int

val to_trace : ?mul:float -> t -> Trace.t
(** Merge the rings into an {!Trace} buffer (one track per ring), ready
    for [Trace.to_chrome] — the Perfetto exporter works unchanged.
    [mul] rescales timestamps into Trace's time unit: pass [~mul:1e3]
    for wall-clock seconds (1 s renders as 1000 trace units). *)
