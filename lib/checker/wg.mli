(** Reference linearizability checker (Wing & Gong style search).

    An independent oracle for cross-validating Theorem 1: exhaustive
    search over linearization orders against the snapshot object's
    sequential specification, with the standard minimal-candidate rule
    and memoization on linearized-sets. Exponential in the worst case —
    meant for small histories (tests use ≤ ~18 operations), where it
    gives ground truth to compare the (A0)–(A4) conditions (decided by
    {!Feed.check}) and the Steps I–II construction against:

    - every history produced by a correct algorithm must satisfy
      {b both} checkers (sufficiency);
    - every mutilated history rejected by the conditions must also be
      rejected by the search (necessity).

    Pending operations: a pending UPDATE may take effect or not (the
    search branches on dropping it); pending SCANs are discarded, as in
    {!Feed.check}.

    On the sequential side the search is weaker than {!Feed.check}: with
    no real-time order it accepts a scan that returns the value of an
    update invoked after the scan responded (ordering that update
    first), which the monitor's (A0) rejects. *)

val linearizable : n:int -> History.t -> bool
(** Does a legal, real-time-respecting total order exist? *)

val equivalent_sequential : n:int -> History.t -> bool
(** Sequential-consistency oracle: does a legal total order exist that
    preserves {e only} each node's program order (no real-time
    constraint)? Same search, with the candidate rule relaxed to
    per-node heads. *)
