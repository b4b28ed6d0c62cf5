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
  val pop_or : 'a t -> 'a -> 'a
  val is_empty : 'a t -> bool
  val nonempty_spy : 'a t -> bool
  val length : 'a t -> int
end

module Make (A : Verif.Atomic_intf.S) = struct
  (* A push allocates one [Node] block and its [next] cell, nothing
     more: the link is the node itself ([Nil] ends the chain) and the
     value sits unboxed in it. *)
  type 'a link =
    | Nil
    | Node of { mutable value : 'a; next : 'a link A.t }

  type 'a t = {
    tail : 'a link A.t;  (* producers swap here, then link *)
    mutable head : 'a link;  (* consumer-only: current stub, a [Node] *)
    mutation : mutation option;
  }

  (* What the stub and every popped node hold in place of a value, so
     the queue does not pin popped payloads for the GC. Never read: a
     node's value is read once, when it is popped, before the clear. *)
  let cleared () : 'a = Obj.magic ()

  let create ?mutation () =
    let stub = Node { value = cleared (); next = A.make Nil } in
    {
      (* [tail] is written from every producing domain; padding gives it
         its own cache lines so producer traffic does not invalidate the
         record block holding the consumer's [head]. *)
      tail = A.make_padded stub;
      head = stub;
      mutation;
    }

  let next_of = function Node n -> n.next | Nil -> assert false

  let push t v =
    let n = Node { value = v; next = A.make Nil } in
    let prev = A.exchange t.tail n in
    (* Between the exchange above and the link below, [n] (and anything
       enqueued after it) is unreachable from [head]: a concurrent pop
       reads the queue as empty. That transient is why mailbox consumers
       must park under the eventcount and producers signal after [push]
       returns — the linking producer's signal is what makes the suffix
       visible. *)
    match t.mutation with
    | Some Skip_link -> ()
    | _ -> A.set (next_of prev) n

  (* The one pop: [none] when empty, else [some] of the front value. *)
  let[@inline] pop_with t ~none ~some =
    match A.get (next_of t.head) with
    | Nil -> none
    | Node n as next ->
        let v = n.value in
        (match t.mutation with
        | Some No_advance -> ()
        | _ ->
            (* Cleared even though the node becomes the stub: a promoted
               stub would otherwise keep its value alive through the
               remembered set. *)
            n.value <- cleared ();
            t.head <- next);
        some v

  let pop_opt t = pop_with t ~none:None ~some:Option.some
  let pop_or t default = pop_with t ~none:default ~some:Fun.id

  let is_empty t = match A.get (next_of t.head) with Nil -> true | Node _ -> false

  (* Untraced emptiness probe for park predicates under the explorer
     (a [Tatomic.until] predicate must not perform effects); in
     production [A.spy = A.get], so this is exactly [not is_empty]. *)
  let nonempty_spy t =
    match A.spy (next_of t.head) with Nil -> false | Node _ -> true

  (* A walk from [head]: no occupancy counter for every push and pop to
     bump. Untraced reads, like [nonempty_spy]. *)
  let length t =
    let rec walk k nd =
      match A.spy (next_of nd) with Nil -> k | nx -> walk (k + 1) nx
    in
    walk 0 t.head
end

include Make (Verif.Atomic_intf.Plain)
