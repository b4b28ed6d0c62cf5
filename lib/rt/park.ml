(* Eventcount parking: the mailbox's lock-free park. Producers on the
   fast path pay a single atomic read ([waiters = 0] almost always
   under load); the mutex+condvar
   survive only as the *terminal* sleep primitive, entered by a consumer
   that has already spun and registered.

   Protocol (all SC atomics):

     consumer: prepare (waiters++; ticket := seq) → recheck queue →
               found? cancel (waiters--) : wait (block until seq ≠
               ticket) → finish (waiters--) → retry pop
     producer: push (fully linked) → signal (if waiters > 0 then seq++;
               broadcast)

   No lost wakeup: suppose the consumer sleeps forever after a push it
   never popped. Its recheck read the queue empty, so in the SC total
   order: waiters++ < ticket read < recheck(empty) < producer's link <
   producer's waiters read — which therefore sees waiters > 0 and bumps
   seq after the ticket was read, so the consumer's poll (or the condvar
   broadcast, if it already blocked — the bump and broadcast happen
   with the waiter either pre-poll, woken by the bump, or inside
   [Condition.wait], woken by the broadcast that the producer issues
   under the same mutex the waiter checked under) observes seq ≠
   ticket. Contradiction. The exhaustive-interleaving program in
   [test_verif] machine-checks exactly this argument on the traced
   atomics, and the [Lost_signal] mutation (signal forgets the seq
   bump) is one of the three seeded bugs the explorer must catch.

   Functorized over {!Verif.Atomic_intf.S}; only the counter protocol
   is functorized — the terminal mutex/condvar sleep is production-only
   and is modelled in the explorer by [Tatomic.until] on {!poll_spy}
   (the documented modelling gap; see DESIGN §6c). *)

type mutation = Lost_signal

module type S = sig
  type t

  val create : ?mutation:mutation -> unit -> t
  val prepare : t -> int
  val cancel : t -> unit
  val poll : t -> int -> bool
  val poll_spy : t -> int -> bool
  val wait : t -> int -> unit
  val finish : t -> unit
  val signal : t -> unit
  val wake_all : t -> unit
end

module Make (A : Verif.Atomic_intf.S) = struct
  type t = {
    seq : int A.t;  (* bumped by signal; sleepers poll it *)
    waiters : int A.t;  (* registered (spinning or blocked) consumers *)
    mutation : mutation option;
    mu : Mutex.t;
    cv : Condition.t;
  }

  let create ?mutation () =
    {
      (* Producers read [waiters] on every post; consumers bump it on
         every park. Own lines for each. *)
      seq = A.make_padded 0;
      waiters = A.make_padded 0;
      mutation;
      mu = Mutex.create ();
      cv = Condition.create ();
    }

  let prepare t =
    A.incr t.waiters;
    A.get t.seq

  let cancel t = A.decr t.waiters
  let finish t = A.decr t.waiters
  let poll t ticket = A.get t.seq <> ticket

  (* Untraced poll for [Tatomic.until] predicates (and nothing else). *)
  let poll_spy t ticket = A.spy t.seq <> ticket

  let signal t =
    if A.get t.waiters > 0 then begin
      (match t.mutation with
      | Some Lost_signal -> ()
      | None -> A.incr t.seq);
      Mutex.lock t.mu;
      Condition.broadcast t.cv;
      Mutex.unlock t.mu
    end

  (* Unconditional wake (crash/stop paths): every sleeper must
     re-examine the world even if no push happened. *)
  let wake_all t =
    A.incr t.seq;
    Mutex.lock t.mu;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu

  (* Terminal sleep: only after [prepare]'s recheck came up empty. The
     poll is re-checked under the mutex, and signallers broadcast under
     the same mutex, so a bump between our check and [Condition.wait]
     cannot slip by unseen. *)
  let wait t ticket =
    Mutex.lock t.mu;
    while not (poll t ticket) do
      Condition.wait t.cv t.mu
    done;
    Mutex.unlock t.mu
end

include Make (Verif.Atomic_intf.Plain)
