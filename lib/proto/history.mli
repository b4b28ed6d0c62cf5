(** Execution histories: the partially ordered set [(H, <_H)] of
    Section II-B, recorded as invocation/response events on a virtual
    timeline.

    The harness wraps every UPDATE/SCAN in [begin_*]/[finish]; crashed
    nodes leave their last operation {e pending} (no response), exactly
    as in the model. The history is also the only producer of the
    online monitor's [Invoke]/[Respond_*]/[Abort] events: each call
    that records an operation boundary hands the matching
    {!Obs.Monitor.event} to the observer given at {!create}, after the
    record is updated and inside the same call. Values are [int]s that
    the workload generator keeps globally unique so that a value
    identifies its UPDATE (the paper's standing assumption, footnote
    2). *)

type kind =
  | Update of int  (** value written *)
  | Scan of int option array option
      (** [Some snap] once responded; [None] while pending *)

type op = {
  id : int;  (** 0-based, in invocation order *)
  node : int;
  mutable kind : kind;
  inv : float;
  mutable resp : float option;  (** [None] = pending (node crashed) *)
  mutable aborted : float option;
      (** set when the node restarted with this op still pending: it
          will never respond. Checkers still see an incomplete op
          (effect-optional); liveness accounting stops waiting. *)
}

type t

val create : ?observe:(Obs.Monitor.event -> unit) -> unit -> t
(** [observe] (default: drop) receives one event per recorded
    boundary: [Invoke] from [begin_*], [Respond_update]/[Respond_scan]
    from [finish_*], [Abort] from {!abort}/{!abort_node}. It runs in
    the caller's context, so a caller that serializes its boundary
    calls (a lock, one thread) serializes the stream too. *)

val begin_update : t -> now:float -> node:int -> value:int -> op
val begin_scan : t -> now:float -> node:int -> op

val finish_update : t -> now:float -> op -> unit
val finish_scan : t -> now:float -> op -> snap:int option array -> unit
(** On an op already aborted, [finish_*] does nothing: the op stays
    aborted, records no response and emits nothing. *)

val ops : t -> op list
(** All operations in invocation order. *)

val abort : t -> now:float -> op -> unit
(** Mark a still-pending op as aborted (its node restarted). No-op on a
    completed or already aborted op. *)

val abort_node : t -> now:float -> node:int -> unit
(** {!abort} every pending op of [node]: what a restart does to the
    dead incarnation's operations. *)

val events : op -> Obs.Monitor.event list
(** The op's events: its [Invoke], then its response or [Abort] if it
    has one — the same events, built by the same code, that the
    observer received for it. *)

val completed : t -> op list

val pending : t -> op list
(** Incomplete operations that may yet respond — excludes aborted
    ones. *)

val aborted : t -> op list

val precedes : op -> op -> bool
(** [precedes a b] is the real-time order [a -> b]: [resp a < inv b].
    Pending operations precede nothing. *)

val is_scan : op -> bool
val is_update : op -> bool

val scan_result : op -> int option array
(** @raise Invalid_argument on updates or pending scans. *)

val update_value : op -> int
(** @raise Invalid_argument on scans. *)

val duration : op -> float option
(** Response minus invocation; [None] while pending. *)

val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit
