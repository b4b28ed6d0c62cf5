(* Vyukov-style intrusive MPSC queue (cf. the Saturn library's
   single-consumer queues): producers contend on one atomic [tail]
   exchange; the consumer owns [head] outright and never synchronizes
   with other consumers, because there are none — each mailbox belongs
   to exactly one node domain.

   The implementation is a functor over {!Verif.Atomic_intf.S} so the
   same code runs on [Stdlib.Atomic] in production (the [include] at
   the bottom — zero cost, no indirection survives inlining) and on
   {!Verif.Tatomic} under the interleaving explorer, which preempts at
   every atomic step. [create]'s [mutation] knob plants the seeded bugs
   the explorer's self-test must catch (precedent:
   [Lattice_core.set_mutation]). *)

type mutation =
  | Skip_link  (** [push] omits the [prev.next] publication. *)
  | No_advance  (** [pop_opt] returns the element but keeps [head]. *)

module type S = sig
  type 'a t

  val create : ?mutation:mutation -> unit -> 'a t
  val push : 'a t -> 'a -> unit
  val pop_opt : 'a t -> 'a option
  val is_empty : 'a t -> bool
  val nonempty_spy : 'a t -> bool
  val length : 'a t -> int
end

module Make (A : Verif.Atomic_intf.S) = struct
  type 'a node = {
    (* [None] only on a consumed node (or the initial stub); cleared on
       pop so the queue does not pin popped payloads for the GC. *)
    mutable value : 'a option;
    next : 'a node option A.t;
  }

  type 'a t = {
    tail : 'a node A.t;  (* producers swap here, then link *)
    mutable head : 'a node;  (* consumer-only: current stub *)
    mutation : mutation option;
  }

  let create ?mutation () =
    let stub = { value = None; next = A.make None } in
    {
      (* [tail] is written from every producing domain; padding gives it
         its own cache lines so producer traffic does not invalidate the
         record block holding the consumer's [head]. *)
      tail = A.make_padded stub;
      head = stub;
      mutation;
    }

  let push t v =
    let n = { value = Some v; next = A.make None } in
    let prev = A.exchange t.tail n in
    (* Between the exchange above and the link below, [n] (and anything
       enqueued after it) is unreachable from [head]: a concurrent pop
       reads the queue as empty. That transient is why mailbox consumers
       must park under the eventcount and producers signal after [push]
       returns — the linking producer's signal is what makes the suffix
       visible. *)
    (match t.mutation with
    | Some Skip_link -> ()
    | _ -> A.set prev.next (Some n))

  let pop_opt t =
    match A.get t.head.next with
    | None -> None
    | Some n ->
        let v = n.value in
        (match t.mutation with
        | Some No_advance -> ()
        | _ ->
            n.value <- None;
            t.head <- n);
        v

  let is_empty t = A.get t.head.next = None

  (* Untraced emptiness probe for park predicates under the explorer
     (a [Tatomic.until] predicate must not perform effects); in
     production [A.spy = A.get], so this is exactly [not is_empty]. *)
  let nonempty_spy t = A.spy t.head.next <> None

  (* A walk from [head]: no occupancy counter for every push and pop to
     bump. Untraced reads, like [nonempty_spy]. *)
  let length t =
    let rec walk k nd =
      match A.spy nd.next with None -> k | Some nx -> walk (k + 1) nx
    in
    walk 0 t.head
end

include Make (Verif.Atomic_intf.Plain)
