(** The off-box experiment driver: client load against a running dist
    deployment, merging the per-operation timestamps every node reports
    into one {!Proto.History.t}, and (in process mode) the whole
    spawn / kill -9 / WAL-recovery / reap choreography.

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

val drive_clients :
  eps:Conn.endpoint array ->
  clients:int ->
  secs:float ->
  ?scan_fraction:float ->
  ?seed:int ->
  unit ->
  op_rec list
(** Closed-loop load: [clients] threads, each pinned to node
    [c mod n] and failing over round-robin when its connection dies.
    Update values are unique per client ([(c+1) * 1_000_000 + k]) so
    the checker's value-based matching works. [scan_fraction] defaults
    to 0.3. Aborted ops carry client-side stamps — same clock, and an
    earlier invocation stamp only relaxes the checker's constraints. *)

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

type report = {
  history : Proto.History.t;
  ops_total : int;
  ops_aborted : int;
  duration : float;
  ops_per_sec : float;
  update_lat : Obs.Hdr.dist;  (** node-side service time, seconds *)
  scan_lat : Obs.Hdr.dist;
  killed : int list;
  recoveries : recovery list;
  exits : node_exit list;
}

type config = {
  algo : Rt.Service.algo;
  nodes : int;
  f : int;
  clients : int;
  secs : float;
  kill : int;  (** SIGKILL this many nodes mid-run (<= f), then restart them *)
  dir : string;  (** run directory: sockets, WALs, per-node logs *)
  tcp_base : int option;  (** Some port: TCP endpoints instead of unix sockets *)
  scan_fraction : float;
  seed : int;
  chaos : Chaos.t option;
  worker_argv : string array;
      (** argv prefix that reaches [dist-node]'s flag parser — e.g.
          [[| Sys.executable_name; "dist-node" |]]; the supervisor
          appends the per-node flags. *)
}

val run : config -> report
(** Spawn [nodes] worker processes, drive load, kill -9 [kill] of them
    at half-time, respawn them with [--recover] at three-quarter time,
    probe until the recovered node serves again, then SIGTERM everyone
    and reap. Worker stdout/stderr land in [dir/node-I.log]. *)

val pp_report : Format.formatter -> report -> unit
