(** The batch decision procedure for the Theorem 1 conditions: a
    finished history folded through the streaming monitor.

    [Obs.Monitor] is the only code that decides (A0)–(A4) and
    (S1)–(S3); this module lowers a recorded {!History.t} to its event
    stream and feeds it through a fresh monitor. {!Linearize} (the
    constructive witness) and {!Wg} (the exhaustive oracle) stay
    independent of it and cross-check it ({!Batch.check}). *)

val events : History.t -> Obs.Monitor.event list
(** The history as a time-ordered monitor event stream: one [Invoke]
    per operation at its invocation time, one [Respond_*] (or [Abort])
    per operation that responded (or was aborted by a restart); other
    pending operations never respond. Each op is lowered by
    {!History.events}, so these are the events a live observer of the
    history received, sorted. Events at equal times are ordered
    by op id, an operation's invoke before its response: a zero-duration
    operation still invokes before it responds, and a node that invokes
    at the instant its previous op responded (a larger id) follows that
    response. Other equal-time ties are also decided by op id, and that
    order can matter for (A0): a scan with a smaller id that responds at
    [t] with the value of an update invoked at [t] is fed before that
    invoke, so (A0) rejects it, although under strict real-time
    precedence ([resp < inv]) neither op precedes the other. *)

val check :
  mode:Obs.Monitor.mode ->
  n:int ->
  History.t ->
  (unit, Obs.Monitor.violation) result
(** Feed {!events} through a fresh [mode] monitor for [n] nodes and
    return its verdict. No crash or round events are synthesized: this
    decides the conditions and the stream's well-formedness only. *)
