(** An in-process dist cluster: every node is a {!Node_main} instance
    on its own thread, talking over real sockets exactly like separate
    processes would. Tests and benches drive it through {!Load.run} to
    exercise the whole wire / transport / reconnect stack without
    forking — forking is {!Supervisor}'s job. *)

type t

val start :
  ?chaos:Chan.faults ->
  ?seed:int ->
  ?wal:bool ->
  algo:Aso_core.Handle.algo ->
  n:int ->
  f:int ->
  dir:string ->
  unit ->
  t
(** Unix-socket endpoints (and WALs, when [wal]) under [dir], which is
    created if needed. Every node gets [chaos] and [seed] and rolls its
    own fault dice from [(seed, id)]. Returns once every node is
    listening. *)

val net : t -> int -> Net.t
(** Node [i]'s network stack (metrics live there). *)

val deployment : t -> Load.deployment
(** The in-process adapter {!Load.run} drives, with
    {!Supervisor.session} clients. A crash stops the node's loop and
    closes its sockets (a thread cannot be killed, so in-flight
    operations complete first); a restart starts a fresh node that
    replays its WAL and rejoins before it serves (the cluster must have
    been started with [~wal:true]). A node is up except between the
    two. *)

val history : t -> Proto.History.t
(** The merged history of every closed session. *)

val stop : t -> unit
(** Graceful: stop each live node's loop, join its thread, close
    sockets. *)
