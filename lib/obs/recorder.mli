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
