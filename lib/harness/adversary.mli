(** Fault schedules, from benign to the paper's worst case.

    A failure chain (Definition 11) is a sequence [p1, ..., pm] where
    [p1] updates and crashes while sending its value so that only [p2]
    receives it; each [pi] crashes while {e forwarding} so that only
    [p(i+1)] receives; [pm] is correct. A value relayed through a chain
    of length [m] stays hidden from all correct nodes for about [m]
    message delays — each hop re-exposes it (Definition 10) and restarts
    pending equivalence quorums.

    The [sqrt k] worst case needs several chains at once: chains must
    use disjoint faulty nodes (Lemma 7), so delaying an operation for
    [m] intervals costs about [1 + 2 + ... + m ≈ m²/2 ≤ k] faults —
    {!chains_for_budget} builds exactly that packing. *)

type chain = {
  updater : int;  (** crashes during its UPDATE's value broadcast *)
  relays : int list;  (** each crashes during its forward *)
  final : int;  (** correct node that finally receives the value *)
}

type t =
  | No_faults
  | Crash_at of (float * int) list
      (** crash node at absolute virtual time *)
  | Crash_restart_at of (float * int * float) list
      (** [(crash_time, node, restart_time)]: crash the node, then
          revive it ([Instance.restart] — log replay + rejoin) at the
          later time, on either substrate. Requires a restart-capable
          instance (EQ-ASO / SSO with persistence); raises
          [Invalid_argument] if [restart_time <= crash_time]. *)
  | Crash_k_random of { k : int; window : float }
      (** [k] distinct random nodes at random times in [\[0, window)] *)
  | Chains of chain list
  | Lossy of Chan.faults
      (** i.i.d. link faults from [t = 0]; requires running on the
          lossy substrate ([Runner.run ~substrate:(Lossy ...)]), raises
          [Invalid_argument] on the ideal network *)
  | Partition of { groups : int list list; from_ : float; until : float }
      (** cut the link layer into [groups] at virtual time [from_] and
          heal it at [until]; unlisted nodes form one implicit group.
          Lossy-substrate only, like {!Lossy} *)
  | Compose of t list
      (** apply several schedules together — e.g.
          [Compose [Lossy ...; Partition ...; Chains ...]] for the full
          chaos adversary *)

val apply : t -> rng:Sim.Rng.t -> engine:Sim.Engine.t -> 'v Instance.t -> unit
(** Install the faults: schedule timed crashes, arm chain crashes, set
    link fault rates, schedule partition cuts and heals. Chain updaters
    still need a workload that makes them update (see {!Scenario}).
    [Compose] parts receive independent RNG streams, so adding one part
    never perturbs another's random choices. *)

val chains_for_budget :
  ?min_len:int -> n:int -> k:int -> scanner:int -> unit -> chain list
(** Pack chains of lengths [min_len], [min_len + 1], ... using [k]
    faulty nodes total, drawn from [0..n-1] excluding [scanner]; any
    leftover budget extends the last (longest) chain; every chain's
    [final] is [scanner], so each value is {e exposed} (Definition 10)
    directly at the victim, one more interval apart per chain.

    [min_len] (default 1) positions the first exposure: a victim
    operation only feels an exposure that lands inside its
    equivalence-quorum wait window, so multi-phase operations (readTag +
    write-tag pipelines, roughly 3 delays deep) need [min_len ≈ 3];
    the one-shot lattice agreement, which starts waiting immediately,
    is hurt from [min_len = 1].

    Raises [Invalid_argument] if [k > n - 2] (the scanner and at least
    one more node must stay correct; the caller is responsible for
    [k <= f < n/2]). *)

val faulty_nodes : t -> int list
(** Nodes the schedule will crash (chain updaters and relays, timed
    crash targets). Random schedules report the empty list (unknown
    until applied); link faults and partitions crash no one. *)
