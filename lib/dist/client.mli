(** A blocking client connection to one dist node, speaking
    [Req]/[Resp] frames. One outstanding operation at a time (the
    load drivers run one client per thread).

    Results carry the node-side invocation/response stamps in absolute
    [CLOCK_MONOTONIC] nanoseconds — what the supervisor merges across
    processes into one linearizability-checkable history. *)

type t

val connect :
  ?attempts:int -> ?rcv_timeout:float -> Conn.endpoint -> t option
(** Try [attempts] (default 50) times, 20 ms apart — nodes take a
    moment to bind their listeners. [None] comes right after the last
    failed attempt, with no trailing sleep: a caller polling with
    [~attempts:1] sets its own pace. [rcv_timeout] (default 30 s) bounds
    every response wait: a node that dies mid-operation can leave the
    stream open but silent. *)

val update : t -> int -> (int * int, unit) result
(** [Ok (t_inv, t_resp)] on completion; [Error ()] means the connection
    is unusable (reconnect to a different node and count the op as
    potentially-applied — an abort in history terms). *)

val scan : t -> (int option array * int * int, unit) result
(** [Ok (snap, t_inv, t_resp)]. *)

val close : t -> unit
