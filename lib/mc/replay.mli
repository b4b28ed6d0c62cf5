(** Replay files: serialized counterexamples.

    A violation found by {!Explore} is reproduced by re-running the same
    system with the same (shrunk) choice list. The [spec] captures both
    halves — system parameters and choices — in a line-based text file
    (version-tagged, no dependencies), so a CI artifact replays on any
    checkout:

    {v
    aso-mc-replay 1
    algo eq-aso
    n 3
    ...
    substrate lossy 0.3 0 0
    crash 1 3,-1
    choices 0,0,1
    v} *)

type substrate_spec = Sim.Network.substrate =
  | Ideal
  | Lossy of Chan.faults  (** saved as [substrate lossy D U R] *)

type workload_spec =
  | Random  (** {!Harness.Workload.random} seeded from [seed] *)
  | Pair of { updater : int; scanner : int; gap : float }
      (** the canonical 2-op config: [updater] updates at time 0,
          [scanner] scans after [gap]; everyone else idle. [ops_per_node],
          [scan_fraction] and [max_gap] are ignored. *)
  | Steps of Harness.Workload.t
      (** explicit per-node schedule, serialized as [sched] lines —
          lets a hand-crafted scenario round-trip through a replay
          file *)

type spec = {
  algo : string;  (** {!Harness.Algo.find} name *)
  n : int;
  f : int;
  seed : int64;  (** engine seed; also seeds the random workload *)
  ops_per_node : int;
  scan_fraction : float;
  max_gap : float;
  workload : workload_spec;
  substrate : substrate_spec;
  crashes : (int * int array) list;
      (** crash choice points, as in {!Explore.sys.crashes} *)
  restarts : (int * int array) list;
      (** restart choice points ([restart NODE s1,s2,...] lines), as in
          {!Explore.sys.restarts}; a negative step means "never" *)
  mutation : Mutants.t option;
  monitor : bool;
      (** re-run with the online monitor attached ([monitor on] line);
          the replayed verdict then reports the mid-run catch *)
  choices : int list;  (** the schedule: forced choice prefix *)
  note : string;  (** free text (e.g. the violation message) *)
}

val default_spec : spec
(** [eq-aso], [n = 3], [f = 1], seed 42, random workload with 2 ops/node,
    ideal substrate, no crashes, no mutation, empty choices. *)

val save : string -> spec -> unit

val load : string -> (spec, string) result
(** Parse a replay file. Unknown keys and malformed lines are errors;
    floats round-trip exactly ([%.17g]). *)

val to_sys : spec -> (Explore.sys, string) result

val run : ?trace:Obs.Trace.t -> spec -> (Explore.run, string) result
(** Build the system and replay the spec's choices. *)
