(** Lock-free multi-producer single-consumer queue.

    The rt backend's mailbox primitive: any domain may {!push}
    concurrently; exactly one domain (the owning node) may call
    {!pop_opt}/{!is_empty}. Laws, checked by the qcheck suite in
    [test_rt] and the STM + exhaustive-interleaving suites in
    [test_verif]:

    - {b per-producer FIFO}: two pushes by the same domain are popped in
      push order (this is what carries the simulator's reliable-FIFO
      channel guarantee over to rt — each (src, dst) channel has a
      single producer);
    - {b no loss, no duplication}: the multiset of popped elements
      equals the multiset of pushed elements once producers are done;
    - {b serialized-consumer linearizability}: with one consumer the
      queue behaves like a FIFO merge of the producers' sequences.

    {b Caveat} (inherent to the Vyukov construction): a [push] swaps the
    shared tail {e then} links the new node, so a concurrent {!pop_opt}
    in that window can report the queue empty while elements sit
    unlinked. Consumers that intend to sleep on empty must park under an
    eventcount ({!Park}) and rely on a producer-side signal {e after}
    [push] returns, which is exactly what {!Node}'s mailbox does. The
    explorer program in [test_verif] pins this contract: pop may
    stutter [None] mid-push, and parking on the signal protocol never
    loses the element.

    The implementation is functorized over {!Verif.Atomic_intf.S};
    production code uses the [include]d plain instantiation below. *)

type mutation =
  | Skip_link
      (** [push] omits the [prev.next] publication — the pushed element
          is reachable from [tail] but never from [head]: a lost
          element, and a parked consumer that never wakes. *)
  | No_advance
      (** [pop_opt] returns the front element but does not advance
          [head]: duplication. *)

module type S = sig
  type 'a t

  val create : ?mutation:mutation -> unit -> 'a t
  (** [mutation] plants a seeded bug for the explorer's self-test; omit
      it (all production callers do) for the correct queue. *)

  val push : 'a t -> 'a -> unit
  (** Wait-free apart from one [Atomic.exchange]; safe from any
      domain. *)

  val pop_opt : 'a t -> 'a option
  (** Consumer only. [None] when the (linked part of the) queue is
      empty. *)

  val pop_or : 'a t -> 'a -> 'a
  (** [pop_or q default]: {!pop_opt} without the option — the front
      element, or [default] when the queue is empty. For consumers that
      pop per message and have a value no producer ever pushes. *)

  val is_empty : 'a t -> bool
  (** Consumer only; same transient-emptiness caveat as {!pop_opt}. *)

  val nonempty_spy : 'a t -> bool
  (** Untraced (never a scheduling point under the explorer) probe:
      [true] iff a linked element is visible. For park predicates and
      telemetry only. *)

  val length : 'a t -> int
  (** Consumer only: the linked elements, counted by a walk from the
      consumer's head — O(length), so sample it, do not call it per
      element. Pushes past their tail exchange but not yet linked are
      not counted ({!is_empty}'s caveat). Telemetry-grade; the queue
      keeps no occupancy counter, so pushes and pops pay nothing for
      it. *)
end

module Make (A : Verif.Atomic_intf.S) : S

include S
