exception Crashed

(* [flow] is the {!Obs.Vclock} flow id of a network message, 0 when
   causal logging is off. Rides next to the payload — protocol message
   types stay untouched, mirroring how the sim's transport carries flow
   ids out of band. *)
type 'm item =
  | Net of { src : int; msg : 'm; flow : int }
  | Work of (unit -> unit)
  | Stop

type 'm t = {
  id : int;
  mbox : 'm item Queue.t;
  (* Lock-free eventcount: producers pay one atomic read on post; the
     consumer spins briefly, then registers and sleeps on the
     eventcount's terminal condvar. *)
  park : Park.t;
  poisoned : bool Atomic.t;
  mutable handler : src:int -> 'm -> unit;
  (* Delivery observer: runs on this node's domain just before the
     handler, for every Net item carrying a flow id. Installed before
     [start] (like the handler); it logs the delivery in the causal
     log. *)
  mutable on_deliver : src:int -> int -> unit;
  (* Work items that arrived while an operation was blocked in [await]:
     they must not run in the middle of that operation (nodes are
     sequential), so the pump parks them here and the run loop drains
     them FIFO once the current operation returns. *)
  mutable deferred_rev : (unit -> unit) list;
  mutable stop : bool;
  mutable domain : unit Domain.t option;
  (* Flight-recorder handle; written only from this node's own domain
     (receive-side events), matching the recorder's single-writer
     contract. Installed before [start], like the handler. *)
  mutable telem : Telem.node option;
  (* Pops since start, for the depth sampling period; node domain
     only. *)
  mutable pops : int;
}

(* How long the consumer spins (polling the mailbox, [cpu_relax]ing)
   before it registers as an eventcount waiter. Small: under load an
   item arrives within the spin and the park machinery is never
   touched; idle, 64 relaxes cost ~100ns before the real sleep. *)
let spin_budget = 64

(* What [Queue.pop_or] returns on an empty mailbox: this block is never
   posted, so a physical comparison tells it apart from every item, and
   a pop allocates no option. *)
let empty : _ item = Work (fun () -> ())

(* The mailbox depth is sampled after every park and on every
   [depth_every]-th pop: [Queue.length] walks the queue, and a sample
   per pop would put a ring event and a clock read on every message. *)
let depth_every = 64

let create id =
  {
    id;
    mbox = Queue.create ();
    park = Park.create ();
    poisoned = Atomic.make false;
    handler = (fun ~src:_ _ -> ());
    on_deliver = (fun ~src:_ _ -> ());
    deferred_rev = [];
    stop = false;
    domain = None;
    telem = None;
    pops = 0;
  }

let id t = t.id
let set_handler t h = t.handler <- h
let set_on_deliver t f = t.on_deliver <- f

let deliver t ~src ~flow msg =
  if flow > 0 then t.on_deliver ~src flow;
  t.handler ~src msg
let set_telem t tl = t.telem <- tl
let is_crashed t = Atomic.get t.poisoned

let post t item =
  if Atomic.get t.poisoned then false
  else begin
    Queue.push t.mbox item;
    (* The push above is linked before this signal, so either the
       consumer already registered (we wake it) or its re-check after
       registering finds the item — no lost wakeup; see [Park] for the
       eventcount argument and [Queue] for why the signal must come
       after [push] returns. *)
    Park.signal t.park;
    true
  end

let crash t =
  Atomic.set t.poisoned true;
  Park.wake_all t.park

(* Blocking receive, node domain only. Fast path is a plain lock-free
   pop. The eventcount slow path spins briefly, then runs the
   prepare/re-check/wait dance from [Park]; the poisoned flag is
   re-checked after every registration so a crash (which bumps the
   eventcount unconditionally) unwinds a sleeping node. Telemetry rides
   the receive side: a slow-path pop records how long the domain was
   parked and the remaining mailbox depth, and every [depth_every]-th
   fast-path pop samples the depth — all written to this node's own
   ring (we are its single writer). *)
let next t =
  if Atomic.get t.poisoned then raise Crashed;
  let item = Queue.pop_or t.mbox empty in
  if item != empty then begin
    (match t.telem with
    | Some nd ->
        t.pops <- t.pops + 1;
        if t.pops mod depth_every = 0 then
          Telem.depth nd ~n:(Queue.length t.mbox)
    | None -> ());
    item
  end
  else begin
    let t_park = match t.telem with Some nd -> Telem.now nd | None -> 0. in
    let rec slow spins =
      if Atomic.get t.poisoned then raise Crashed;
      let item = Queue.pop_or t.mbox empty in
      if item != empty then item
      else if spins > 0 then begin
        Domain.cpu_relax ();
        slow (spins - 1)
      end
      else begin
        let ticket = Park.prepare t.park in
        if Atomic.get t.poisoned then begin
          Park.cancel t.park;
          raise Crashed
        end;
        (* Mandatory re-check between registering and sleeping: a push
           that raced our registration either is visible here or saw our
           waiter count and will bump the sequence. *)
        let item = Queue.pop_or t.mbox empty in
        if item != empty then begin
          Park.cancel t.park;
          item
        end
        else begin
          Park.wait t.park ticket;
          Park.finish t.park;
          slow spin_budget
        end
      end
    in
    let item = slow spin_budget in
    (match t.telem with
    | Some nd ->
        Telem.park nd ~secs:(Telem.now nd -. t_park);
        Telem.depth nd ~n:(Queue.length t.mbox)
    | None -> ());
    item
  end

(* The operation-context wait: pump the node's own mailbox until [pred]
   holds. Message handlers run inline (that is what makes the predicate
   progress); fresh operations are deferred. This reproduces the
   simulator's atomicity contract exactly: handlers interleave with
   operation code only at await points. [Stop] is latched for the run
   loop and ends the wait as a crash does: the peers may already have
   stopped, so the predicate may never hold. *)
let await t pred =
  while not (pred ()) do
    match next t with
    | Net { src; msg; flow } -> deliver t ~src ~flow msg
    | Work f -> t.deferred_rev <- f :: t.deferred_rev
    | Stop ->
        t.stop <- true;
        raise Crashed
  done

let rec drain_deferred t =
  match List.rev t.deferred_rev with
  | [] -> ()
  | works ->
      t.deferred_rev <- [];
      List.iter (fun f -> if not t.stop then f ()) works;
      drain_deferred t

let run t =
  try
    while not t.stop do
      match next t with
      | Net { src; msg; flow } -> deliver t ~src ~flow msg
      | Work f ->
          f ();
          drain_deferred t
      | Stop -> t.stop <- true
    done
  with Crashed -> ()

let start t = t.domain <- Some (Domain.spawn (fun () -> run t))

let join t =
  match t.domain with
  | None -> ()
  | Some d ->
      t.domain <- None;
      Domain.join d

(* Restart = join the dead domain, discard every remnant of the old
   incarnation (queued messages and deferred work are channel/volatile
   state lost in the crash), then unpoison and spawn a fresh domain.
   Caller-serialized: the node is down for the whole call, so this
   thread is the sole consumer of the mailbox. *)
let restart t =
  if not (Atomic.get t.poisoned) then
    invalid_arg "Rt.Node.restart: node is not crashed";
  join t;
  let rec drain () =
    match Queue.pop_opt t.mbox with Some _ -> drain () | None -> ()
  in
  drain ();
  t.deferred_rev <- [];
  t.stop <- false;
  Atomic.set t.poisoned false;
  start t
