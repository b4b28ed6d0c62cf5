(** One protocol node as a process: wire a {!Net} backend to an
    algorithm instance, serve client [Req] frames over the same
    listener, optionally persist through a WAL and run the rejoin
    protocol on startup. [bin/aso_demo dist-node] is a thin CLI shell
    around this module; {!Local} embeds it in-process for tests and
    benches. *)

type config = {
  me : int;
  eps : Conn.endpoint array;
  f : int;
  algo : Aso_core.Handle.algo;
  wal : string option;  (** WAL path — enables persistence *)
  recover : bool;  (** replay the WAL and run the rejoin protocol first *)
  chaos : Chan.faults option;  (** link faults on this node's sends *)
}

type t

val start : ?telemetry:string -> ?seed:int -> config -> t
(** Build the backend, instantiate the algorithm on it, install the
    client handler, open sockets. [seed] drives the link-fault dice
    ({!Net.create}). With [?telemetry] (["HOST:PORT"]), a
    Prometheus exposition endpoint serves the node's metrics registry.
    The node is live once this returns, but operations only run once
    {!run} is looping. *)

val net : t -> Net.t

val run : t -> unit
(** The node's loop ({!Net.run}; blocking, and the caller's thread is
    the node's only one). Returns after {!request_stop}. *)

val request_stop : t -> unit
(** Graceful shutdown trigger, from any thread or signal handler. The
    operation in flight completes before {!run} returns; requests still
    queued are dropped, and their clients see the connection close. *)

val shutdown : t -> unit
(** Close sockets and stop the telemetry endpoint. Call after {!run}
    returned. *)
