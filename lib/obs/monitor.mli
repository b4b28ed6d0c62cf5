(** Online (streaming) checker for the snapshot correctness conditions.

    This monitor is the repo's only decision procedure for (A0)–(A4)
    and (S1)–(S3). It consumes one event per operation
    invocation/response {e as the run executes} and stops at the
    {e first} violation, so a buggy run is caught after the violating
    scan responds rather than after millions of further simulated
    steps. Batch checking is the same procedure: [Checker.Feed.check]
    folds a finished history's event stream through a fresh monitor.

    Checks performed, incrementally:
    {ul
    {- well-formedness of the event stream in the Wing & Gong model
       ("wf"): non-decreasing timestamps, matched invoke/response
       pairs, at most one outstanding operation per node (sequential
       processes), no operations by crashed nodes;}
    {- (A0) every scanned value was actually written, in the writer's
       own segment;}
    {- (A1) base comparability, maintained as a cardinality-sorted
       inclusion {e chain}: each new base is inserted by cardinality and
       compared only against its chain neighbours (two comparable bases
       of equal size are equal), instead of re-sorting all bases;}
    {- (A2) a scan's base contains every update that completed before
       the scan was invoked;}
    {- (A3) if scan [s1] precedes scan [s2] then [base s1 ⊆ base s2]
       — checked against the largest base among real-time-preceding
       scans, which (given A1 for the already-admitted prefix)
       dominates all of them;}
    {- (A4) a base is closed under real-time predecessors of its
       members: no completed update outside the base finished before
       some member was invoked;}
    {- per-update round budgets ("budget"): the sampled
       [aso.rounds_per_update] value must stay within
       [budget ~crashes] — by default {!default_budget}, the
       [2·sqrt(k)+3]-style bound with the constant adjusted to the
       T2 borrowing cap (see DESIGN.md §5c).}}

    Legality of each scan (segment [j] holds the latest base update by
    node [j]) is automatic: bases are {e constructed} as unions of
    writer prefixes, exactly as in [lib/checker/base.ml].

    Streaming loses nothing against a whole-history check: each
    condition is a property of a scan's response against operations
    invoked or responded earlier, all of which have been fed by then.
    Two independent checkers cross-validate it: the constructive Steps
    I–II witness ([Checker.Linearize]) and the exhaustive Wing–Gong
    search ([Checker.Wg]), which agree with it on every atomic verdict.
    In [Sequential] mode the monitor keeps the (A0) validity check, so
    it rejects a scan that returns the value of an update invoked after
    the scan responded; the search, having no real time, accepts such a
    history, which no real execution can produce. *)

type op = Update of int  (** the written value *) | Scan

type event =
  | Invoke of { id : int; node : int; at : float; op : op }
  | Respond_update of { id : int; at : float }
  | Respond_scan of { id : int; at : float; snap : int option array }
  | Crash of { node : int; at : float }
  | Abort of { id : int; at : float }
      (** operation [id] will never respond: its node restarted while it
          was pending. Clears the node's outstanding slot; a later
          response for it is a ["wf"] violation (restart must not
          resurrect operations). *)
  | Restart of { node : int; at : float }
      (** a crashed node rejoined; it may invoke again. Restarting a
          live node is a ["wf"] violation. The crash count [k] (and with
          it the round budget) keeps counting cumulative failures. *)
  | Rounds of { id : int; rounds : float }
      (** lattice-operation count sampled for completed update [id]
          (from the [aso.rounds_per_update] histogram); feed after the
          matching [Respond_update] *)

type mode =
  | Atomic  (** full A0–A4: the EQ-ASO linearizability conditions *)
  | Sequential
      (** the SSO sequential-consistency pass: A0 validity plus
          comparability (S1 — the same inclusion chain as A1),
          read-your-writes (S2: the scanning node's own program-order
          update prefix is in the base) and per-node scan monotonicity
          (S3) — the real-time conditions A2–A4 do not apply. *)

type violation = {
  condition : string;
      (** ["wf"], ["A0"], ["A1"], ["A2"], ["A3"], ["A4"], ["S1"],
          ["S2"], ["S3"] or ["budget"] *)
  detail : string;
  op : int;  (** offending operation id; [-1] if none *)
  node : int;  (** node to whose timeline the violation attaches *)
  at : float;  (** virtual time of the violating event *)
  events_seen : int;  (** monitor events consumed when it fired *)
}

type t

val default_budget : crashes:int -> float
(** [2·sqrt(k) + 4]: the paper's [2·sqrt(k)+3] worst-case lattice-op
    budget, with the additive constant raised by one so the failure-free
    cap is exactly the T2 borrowing ceiling (one phase-0 lattice op plus
    at most three renewal attempts before a view is borrowed) — tight
    enough to catch the borrowing ablation under crashes, loose enough
    to never fire on a correct run. *)

val create : ?budget:(crashes:int -> float) -> ?mode:mode -> n:int -> unit -> t
(** Fresh monitor for [n] nodes. [budget] defaults to
    {!default_budget}; [mode] to [Atomic]. *)

val feed : t -> event -> (unit, violation) result
(** Consume one event. After the first [Error v], the monitor is
    stopped: every further [feed] returns the same [Error v] without
    processing. *)

val violation : t -> violation option
val events_seen : t -> int
val crashes : t -> int
(** Crash events consumed so far (the [k] fed to the budget). *)

val scans_checked : t -> int
(** Scan responses that passed A0–A4 so far. *)

val pp_violation : Format.formatter -> violation -> unit
