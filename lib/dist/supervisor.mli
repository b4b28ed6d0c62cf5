(** The dist backend under {!Load.run}: client sessions over sockets,
    the merge of the per-operation timestamps every node reports into
    one {!Proto.History.t}, and (in process mode) the spawn / kill -9 /
    WAL-recovery / reap adapter.

    The history merge is sound because every node stamps operations
    with the same system-wide [CLOCK_MONOTONIC]: real-time precedence
    between operations on different processes is exactly comparison of
    those stamps. Failed round-trips become {e aborts} — the client
    cannot know whether the op took effect, so the checker treats it as
    forever-pending, which only weakens the constraints it imposes. *)

type op_kind = K_update of int | K_scan of int option array

type op_rec = {
  o_node : int;
      (** the serving node — the history's sequential process (the node
          serializes every client's ops through its run loop, and its
          id is the writer id scans key segments on, so per-node
          intervals from node-side stamps never overlap) *)
  o_kind : op_kind;
  o_inv : int;
      (** invocation stamp, CLOCK_MONOTONIC ns. Completed ops carry
          node-side stamps (taken inside the serialized protocol loop);
          aborted ops carry client-side stamps, which {!merge_history}
          re-anchors into the node's sequence *)
  o_resp : int;  (** response stamp *)
  o_ok : bool;  (** false = aborted (conn died mid-op) *)
}

(** {2 Client sessions} *)

type log
(** The operation records of every session, for {!merge_history}. *)

val log : unit -> log
val records : log -> op_rec list

val session : log -> Conn.endpoint array -> Load.session
(** One load-driver client over the nodes at [eps]. It holds one
    connection, to the node of its last op: an op on another node
    closes it and dials that node (a node that accepts no connection
    rejects the op), and a failed round-trip drops it (the op is
    aborted, with client-side stamps — same clock, and an earlier
    invocation stamp only relaxes the checker's constraints).
    Completed ops carry the node-side stamps. The records reach the log
    when the session closes. *)

val merge_history : op_rec list -> Proto.History.t
(** Replay the records into a history in global timestamp order,
    interleaving invocations and responses exactly as they happened
    across all processes. Aborted ops only have client-side stamps, so
    they are re-anchored just after the node's last pre-failure
    response: a killed node's reply either escaped its socket (then the
    op completed) or did not (then the op, if it ran at all, ran after
    every op whose reply escaped) — so the anchored interval is never
    later than the true execution slot, which is the sound direction,
    and chaining the anchored aborts keeps the node sequential. *)

(** {2 Process mode} *)

type exit_status = Clean | Exited of int | Signaled of int

type node_exit = { x_node : int; x_status : exit_status; x_restarted : bool }

type recovery = { rec_node : int; rec_ready_after : float }
(** Seconds from respawn to the first successful operation on the
    recovered node. *)

val pp_status : Format.formatter -> exit_status -> unit

type config = {
  algo : Aso_core.Handle.algo;
  nodes : int;
  f : int;
  dir : string;  (** run directory: sockets, WALs, per-node logs *)
  tcp_base : int option;  (** Some port: TCP endpoints instead of unix sockets *)
  link_faults : Chan.faults;  (** on every worker's sends *)
  seed : int;  (** seeds the workers' fault dice, each with its own id *)
  worker_argv : string array;
      (** argv prefix that reaches [dist-node]'s flag parser — e.g.
          [[| Sys.executable_name; "dist-node" |]]; the supervisor
          appends the per-node flags. *)
}

type t

val start : config -> t
(** Spawn [nodes] worker processes. Worker stdout/stderr land in
    [dir/node-I.log]. *)

val deployment : t -> Load.deployment
(** The process adapter {!Load.run} drives. A crash is SIGKILL and
    reap. A restart respawns the worker with [--recover] and probes it
    with SCANs until one completes (at most 30 s); the probe joins the
    history. A node is up from its spawn until its kill, and again once
    a probe has completed. *)

val stop : t -> node_exit list
(** SIGTERM every worker and reap it. Returns every exit, the killed
    incarnations' first, oldest first. *)

val history : t -> Proto.History.t
(** {!merge_history} of every closed session's records and the probes. *)

val recoveries : t -> recovery list
