(** Batch entry point: every checker this repo has, on one history.

    The model checker runs thousands of schedules and wants the
    strongest verdict available per history: the Theorem 1 conditions
    ((A0)–(A4) or (S1)–(S3), decided by {!Feed.check}), the
    constructive Steps I–II witness, and — on histories of at most 14
    operations — the independent Wing–Gong search oracle. Any
    disagreement between the three is reported as a violation (a checker
    bug is as much a counterexample as a protocol bug). *)

type level = Obs.Monitor.mode = Atomic | Sequential

val label : level -> string
(** ["linearizable"] or ["sequentially consistent"]. *)

val infer_n : History.t -> int
(** Segment count of a history: scans carry it in their snapshots; falls
    back to the largest node id seen. 1 on the empty history. *)

val check : ?n:int -> level -> History.t -> (unit, string) result
(** [check level history] runs {!Feed.check}, the constructive
    linearization/sequentialization, and (when the history has at most
    14 operations) the Wing–Gong oracle. [n] defaults to {!infer_n}.
    [Error] carries a human-readable diagnosis naming the failed
    condition or the disagreeing checker. *)
