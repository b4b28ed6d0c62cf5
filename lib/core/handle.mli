(** One protocol handle for the backends that deploy EQ-ASO or
    SSO-Fast-Scan on an arbitrary {!Backend.net} ([Rt.Service] on
    domains, [Dist.Node_main] in a process): the algorithm choice, its
    name, the conditions its histories must satisfy, and the dispatch
    from the choice to the four operations a backend drives. *)

type algo = Eq_aso | Sso_fast_scan

val algo_name : algo -> string
val algo_of_name : string -> algo option
(** Accepts dashes or underscores, case-insensitive. *)

val mode : algo -> Obs.Monitor.mode
(** The conditions the algorithm's histories must satisfy: [Atomic]
    (A0–A4) for EQ-ASO, [Sequential] (S1–S3) for SSO. *)

type t = {
  update : node:int -> int -> unit;
  scan : node:int -> int option array;
  begin_recovery : node:int -> unit;
  recover : node:int -> unit;
}

val create :
  ?mutation:Lattice_core.mutation ->
  algo ->
  int Lattice_core.Msg.t Backend.net ->
  f:int ->
  store:(int -> int Persist.Store.t option) ->
  t
(** Instantiate [algo] on the backend ([create_on]), attach node [i]'s
    durable store when [store i] gives one, and arm [mutation]
    ({!Lattice_core.set_mutation}). *)
