(* The atomic-operations surface the rt hot paths are functorized over.

   Two implementations: [Plain] (Stdlib.Atomic, zero-cost — the
   production instantiation) and [Tatomic] (every operation performs an
   effect before touching the cell, so the interleaving explorer can
   preempt at exactly the points where real hardware could). Keeping the
   signature identical to [Stdlib.Atomic] plus [make_padded]/[spy] means
   the functor bodies read like ordinary atomic code. *)

module type S = sig
  type 'a t

  val make : 'a -> 'a t

  val make_padded : 'a -> 'a t
  (** Like [make], but the cell is padded out to its own cache lines.
      Used for long-lived hot atomics ([tail], eventcount
      words); transient per-node cells use plain [make]. Under the
      traced implementation this is just [make]. *)

  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit

  val spy : 'a t -> 'a
  (** Untraced read: same value as [get], but never a scheduling point.
      Only for predicates handed to the explorer's [until] (which must
      not perform effects) and for telemetry gauges; production code
      paths use [get]. *)
end

module Plain : S = struct
  type 'a t = 'a Atomic.t

  let make = Atomic.make
  let make_padded v = Obs.Padding.copy_as_padded (Atomic.make v)
  let get = Atomic.get
  let set = Atomic.set
  let exchange = Atomic.exchange
  let compare_and_set = Atomic.compare_and_set
  let fetch_and_add = Atomic.fetch_and_add
  let incr = Atomic.incr
  let decr = Atomic.decr
  let spy = Atomic.get
end
