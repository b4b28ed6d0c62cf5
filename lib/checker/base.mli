(** Bases of SCAN operations (Definition 4).

    The base of a SCAN returning [Snap] is [∪_i U_{i,H}^{<= op_i}] where
    [op_i] is the UPDATE that wrote [Snap[i]] — i.e. per segment, the
    writer's whole program-order prefix of UPDATEs up to the scanned one.
    Bases are the raw material of the linearization construction
    ({!Linearize}); [Obs.Monitor] builds the same bases incrementally,
    as per-node prefix-length vectors, to decide (A0)–(A4).

    Operations are identified by their {!History.op.id}; a base is a set
    of update ids. Values must be globally unique across updates (the
    paper's standing assumption; the workload generator guarantees it),
    otherwise {!context} reports an error. *)

module Int_set : Set.S with type elt = int

type t = Int_set.t
(** A set of UPDATE operation ids. *)

type context

val context : n:int -> History.t -> (context, string) result
(** Preprocess a history: index updates by value and by node. Pending
    updates participate (their values may legitimately appear in
    scans). Errors on duplicate update values or out-of-range nodes. *)

val of_scan : context -> History.op -> (t, string) result
(** Base of a completed scan. Errors when the scan returns a value no
    update wrote, or a value in the wrong segment (segment [j] written
    by a node other than [j]). *)

val updates : context -> History.op list
(** All updates, invocation order. *)

val completed_scans : context -> History.op list

