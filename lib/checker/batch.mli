(** Batch entry point: every checker this repo has, on one history.

    The model checker runs thousands of schedules and wants the
    strongest verdict available per history: the Theorem 1 conditions
    ((A0)–(A4) or (S1)–(S3), decided by {!Feed.check}), the
    constructive Steps I–II witness, and — on histories of at most 14
    operations — the independent Wing–Gong search oracle. Any
    disagreement between the three is reported as a violation (a checker
    bug is as much a counterexample as a protocol bug). *)

val label : Obs.Monitor.mode -> string
(** ["linearizable"] or ["sequentially consistent"]. *)

val infer_n : History.t -> int
(** Segment count of a history: scans carry it in their snapshots; falls
    back to the largest node id seen. 1 on the empty history. *)

val check : ?n:int -> Obs.Monitor.mode -> History.t -> (unit, string) result
(** [check level history] runs {!Feed.check}, the constructive
    linearization/sequentialization, and (when the history has at most
    14 operations) the Wing–Gong oracle. [n] defaults to {!infer_n}.
    [Error] carries a human-readable diagnosis naming the failed
    condition or the disagreeing checker. *)

val verdict : n:int -> Obs.Monitor.mode -> History.t -> (string, string) result
(** The verdict every wall-clock run (serve, dist-serve, the bench's
    rows) reports: {!check} on histories of at most 1500 operations,
    where the quadratic witness is affordable, and {!Feed.check} alone
    above that. [Ok] carries the pass label, e.g. ["linearizable
    (A0-A4, monitor + witness)"]; [Error] the violation text. *)
