(** Canonical experiment scenarios — the workload + adversary
    combinations behind every regenerated table and figure (see
    DESIGN.md's experiment index and EXPERIMENTS.md for results).

    All latencies are reported in units of [D] (the delay bound); the
    delay model is the adversarial [Fixed D] unless stated otherwise, so
    worst-case numbers really are worst-case for the given fault
    schedule. *)

type row = {
  algo : string;
  k : int;  (** actual failures in the execution *)
  rounds : int;  (** closed-loop rounds per live node *)
  worst_update : float;  (** max completed-update latency, in D; nan if none *)
  mean_update : float;
  worst_scan : float;
  mean_scan : float;
  mean_rounds_upd : float;
      (** mean lattice operations per completed UPDATE, from the
          ["aso.rounds_per_update"] histogram; nan for algorithms that
          don't sample it (register baselines) *)
  max_rounds_upd : float;  (** max of the same histogram; nan if absent *)
  messages : int;
  end_time : float;  (** virtual makespan, in D *)
}

val chain_storm : algo:Algo.t -> k:int -> rounds:int -> seed:int64 -> row
(** The paper's worst-case construction: [k] crash faults packed into
    failure chains of increasing length (Definition 11), all triggered
    by updates at time 0, while a live updater and a live scanner run a
    closed loop of [rounds] (UPDATE; SCAN) pairs. System size is
    [n = 2k + 3] ([>= 5]) with [f = (n - 1) / 2 >= k]. Chain updaters
    crash, so their operations are pending and excluded from latency
    stats; measured operations are the live nodes'. *)

val failure_free : algo:Algo.t -> n:int -> rounds:int -> seed:int64 -> row
(** [k = 0], every node runs a closed loop of [rounds] (UPDATE; SCAN)
    pairs under fixed worst-case delays — the paper's "constant time
    unconditionally" regime. *)

val random_crashes :
  algo:Algo.t -> n:int -> k:int -> ops_per_node:int -> seed:int64 -> row
(** Random workload with [k] crashes at random times — the
    representative-average regime (not adversarial). *)

val run_and_check :
  ?substrate:Sim.Network.substrate ->
  ?watchdog:Runner.watchdog ->
  algo:Algo.t ->
  config:Runner.config ->
  workload:Workload.t ->
  adversary:Adversary.t ->
  seed:int64 ->
  unit ->
  Runner.outcome
(** Shared runner: executes and then {e verifies} the history at the
    algorithm's declared consistency level, raising [Failure] on any
    violation — experiments never report numbers from an incorrect
    run. *)

val to_cells : row -> string list
val header : string list

(** {2 Chaos: unmodified algorithms on the lossy substrate} *)

type chaos_row = {
  c_algo : string;
  faults : Chan.faults;
  part_span : float;  (** partition duration in D; 0 = none *)
  c_k : int;  (** crashes in the execution *)
  c_ops : int;  (** completed operations *)
  c_msgs : int;  (** logical messages *)
  wire : int;  (** wire packets: data + retransmits + acks + dups *)
  lost : int;  (** packets eaten by loss or a partition cut *)
  overhead : float;  (** wire / logical *)
  c_end : float;  (** makespan in D *)
  c_metrics : Obs.Metrics.snapshot;  (** the run's full metrics registry *)
}

val chaos :
  algo:Algo.t ->
  n:int ->
  k:int ->
  faults:Chan.faults ->
  part_span:float ->
  ops_per_node:int ->
  seed:int64 ->
  chaos_row
(** Random workload on the lossy substrate with [faults] from [t = 0],
    an optional node-split partition over [\[2 D, 2 D + part_span\]]
    that then heals, and [k] random crashes — all composed. Runs under
    {!Runner.default_watchdog}, so a liveness hang raises
    {!Runner.Stuck} with diagnostics instead of spinning; the history is
    verified at the algorithm's consistency level as in
    {!run_and_check}. Raises [Invalid_argument] if [k > (n-1)/2]. *)

val chaos_cells : chaos_row -> string list
val chaos_header : string list
