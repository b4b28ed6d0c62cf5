(** Structured execution traces with simulated timestamps.

    A trace is an append-only stream of events — span begin/end pairs,
    instants, and counter samples — each stamped with a virtual time, a
    process id (the node whose track the event belongs to), a category,
    and optional key/value arguments. Spans nest per process following
    strict stack discipline, exactly as Chrome trace-event [B]/[E]
    events do, so one UPDATE span decomposes into its protocol phases
    (readTag, lattice, renewal, borrow) on the node's track.

    Tracing is {e passive}: emitting never touches the simulation's RNG
    or event queue, so an execution traced and untraced produces the
    same schedule, and the disabled trace ({!noop}) makes every emit a
    single branch.

    Two sink shapes: unbounded (export-quality traces) and a bounded
    ring that keeps the last [capacity] events (the liveness watchdog's
    post-mortem tail). Exporters produce Chrome trace-event JSON —
    loadable in Perfetto or [chrome://tracing] with one lane per
    process — and JSONL (one event object per line). *)

type value = Int of int | Float of float | Str of string | Bool of bool

type kind =
  | Begin  (** span open; must be closed by a matching [End] on the pid *)
  | End
  | Instant  (** point event *)
  | Counter  (** sampled numeric series *)
  | Flow_start  (** flow origin (Chrome [ph:"s"]); pairs by flow id *)
  | Flow_end  (** flow terminus (Chrome [ph:"f"], [bp:"e"]) *)

type event = {
  ts : float;  (** virtual time, in units of the delay bound [D] *)
  pid : int;  (** process (node) id — one Perfetto track per pid *)
  kind : kind;
  name : string;
  cat : string;
  args : (string * value) list;
}

type t

val noop : t
(** The disabled trace: {!enabled} is [false] and every emit is a no-op.
    Components default to this, making instrumentation zero-cost until a
    harness opts in. *)

val create : ?capacity:int -> unit -> t
(** Fresh enabled trace. [capacity = 0] (default) keeps every event;
    [capacity > 0] keeps only the newest [capacity] events, evicting the
    oldest ([ring buffer]).
    @raise Invalid_argument on negative capacity. *)

val enabled : t -> bool

val emit : t -> event -> unit

val span_begin :
  t -> ts:float -> pid:int -> ?cat:string -> ?args:(string * value) list ->
  string -> unit
(** Open a span named [name] on [pid]'s track. Default [cat] is
    ["phase"]. *)

val span_end :
  t -> ts:float -> pid:int -> ?cat:string -> ?args:(string * value) list ->
  string -> unit
(** Close the innermost open span on [pid]'s track ([name] and [cat]
    should match the begin; end-side [args] are merged by viewers). *)

val span :
  t -> now:(unit -> float) -> pid:int -> ?cat:string ->
  ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [span t ~now ~pid name f] runs [f] inside a span on [pid]'s track,
    begun and ended at [now ()]; [args] ride on the begin. The end is
    emitted even when [f] raises, so the track stays balanced. On a
    disabled trace it is [f ()]: [now] is never called. *)

val instant :
  t -> ts:float -> pid:int -> ?cat:string -> ?args:(string * value) list ->
  string -> unit

val counter : t -> ts:float -> pid:int -> value:float -> string -> unit
(** Sample a numeric series; renders as a counter track. *)

val flow_start :
  t -> ts:float -> pid:int -> id:int -> ?cat:string ->
  ?args:(string * value) list -> string -> unit
(** Open flow arrow [id] at ([ts], [pid]) — e.g. a message send. In the
    Chrome export the id surfaces as the top-level ["id"] field (not an
    arg), which is what Perfetto keys flows on. Default [cat] is
    ["flow"]; use the same [name], [cat] and [id] on the matching
    {!flow_end}. *)

val flow_end :
  t -> ts:float -> pid:int -> id:int -> ?cat:string ->
  ?args:(string * value) list -> string -> unit
(** Terminate flow arrow [id] at ([ts], [pid]) — e.g. the matching
    delivery. Emitted with [bp:"e"] so viewers bind the arrow head to
    the enclosing span on the receiving track. *)

val length : t -> int
(** Events currently buffered (after eviction). *)

val emitted : t -> int
(** Events emitted over the trace's lifetime. *)

val evicted : t -> int
(** Events dropped by the ring buffer. *)

val events : t -> event list
(** Buffered events, oldest first. *)

val tail : t -> int -> event list
(** Last [n] buffered events, oldest first. *)

val clear : t -> unit

val pp_event : Format.formatter -> event -> unit
(** One-line rendering (time, pid, kind, cat:name, args) — the liveness
    watchdog's post-mortem format. *)

val to_chrome :
  ?process_name:string -> ?track_name:(int -> string) -> t -> string
(** Chrome trace-event JSON ([{"traceEvents":[...]}]): open the string
    in Perfetto or [chrome://tracing]. Each pid becomes its own named
    track ([track_name], default ["node <pid>"]); one unit of virtual
    time renders as 1 ms. *)

val to_jsonl : t -> string
(** One trace-event JSON object per line — greppable, streamable. *)
