module LC = Aso_core.Lattice_core

type algo = Aso_core.Handle.algo = Eq_aso | Sso_fast_scan

(* A client's handle on one submitted request. [state] transitions
   Pending -> Done | Aborted exactly once ([resolve] is idempotent), so
   the operation's own completion path and the crash sweep can race
   harmlessly. *)
type reply = {
  rm : Mutex.t;
  rc : Condition.t;
  mutable state : [ `Pending | `Done | `Aborted ];
  mutable snap : int option array option;
}

type recovery = {
  rec_node : int;
  rec_replayed : int;
      (** log records replayed (the store's size at restart) *)
  rec_ready_after : float;
      (** seconds from the restart call to recovery completion *)
  rec_first_op : float;
      (** seconds from the restart call to the first served operation
          (the probe SCAN the service runs as soon as rejoin ends) *)
}

type t = {
  net : int LC.Msg.t Net.t;
  n : int;
  ops : Aso_core.Handle.t;
  stores : int Persist.Store.t array;
  batch : bool;
  (* One service lock guards the history and the in-flight registries.
     Protocol execution never holds it across a blocking point — work
     bodies take it only to stamp history events at operation
     boundaries. The batched path below does NOT use it: submission
     rides a lock-free MPMC queue per node. *)
  lock : Mutex.t;
  history : History.t;
  in_flight : reply list array;
  (* Per-node group-commit sub-queue. Producers: every client domain.
     Consumers: the node's drain work item — and, concurrently, the
     crash sweep in [crash_node]/[restart_node], which is why this must
     be MPMC and not the mailbox MPSC. *)
  batch_q : (int * reply) Mpmc.t array;
  (* True while a drain work item is queued or running on the node.
     CAS-claimed by the first submitter after an empty drain; reset by
     the drainer (followed by a missed-wakeup re-check) and by the
     crash path. *)
  batch_draining : bool Atomic.t array;
  (* Service-level flag: true from [restart_node] until the node's
     rejoin completes. The load driver skips recovering nodes; a racy
     read only costs a request that waits behind the recovery work. *)
  recovering : bool array;
  mutable recoveries : recovery list;
  mutable fused_away : int;
  (* Per-node flight-recorder handles ([None] when the recorder is off);
     written only from the owning node's domain, except the retroactive
     replay span in [restart_node] (explicit-timestamp events emitted by
     the fresh incarnation). *)
  tnodes : Telem.node option array;
  (* Live online monitor ([None] unless created with [~online:true]),
     the history's observer: every boundary is stamped through [stamp],
     under [s.lock], so the push happens in the critical section that
     read the event's timestamp. That total order is what makes the
     monitor's time-ordered stream sound (DESIGN.md section 6d). *)
  live : Live_monitor.t option;
}

let new_reply () =
  {
    rm = Mutex.create ();
    rc = Condition.create ();
    state = `Pending;
    snap = None;
  }

let resolve r st =
  Mutex.lock r.rm;
  (match r.state with
  | `Pending ->
      r.state <- st;
      Condition.broadcast r.rc
  | `Done | `Aborted -> ());
  Mutex.unlock r.rm

let await_reply r =
  Mutex.lock r.rm;
  while r.state = `Pending do
    Condition.wait r.rc r.rm
  done;
  let st = r.state in
  Mutex.unlock r.rm;
  match st with `Pending -> assert false | (`Done | `Aborted) as st -> st

(* Callers hold [s.lock]. *)
let unregister s node r =
  s.in_flight.(node) <- List.filter (fun r' -> r' != r) s.in_flight.(node)

(* Work bodies run on the node's own domain, so per-node execution is
   serialized and history invoke/respond events at a node never overlap
   — which is what the checker's well-formedness (sequential nodes,
   Section II-A) requires. Client-perceived latency, which does include
   mailbox queueing, is measured by the load driver. *)

(* Flight-recorder emission points — all on the node's own domain (the
   work body), so the single-writer contract holds. Span ends fire on
   both the success and the crash-unwind path. *)
let tele s node f = match s.tnodes.(node) with Some nd -> f nd | None -> ()

(* Every history boundary goes through here: the clock is read, the
   history (and with it the live monitor's feed) is updated, all under
   [s.lock], so feed order agrees with timestamp order. *)
let stamp s f =
  Mutex.lock s.lock;
  let r = f (Net.now s.net) in
  Mutex.unlock s.lock;
  r

let run_update s ~node v r () =
  tele s node Telem.update_begin;
  let op =
    stamp s (fun now -> History.begin_update s.history ~now ~node ~value:v)
  in
  match s.ops.update ~node v with
  | () ->
      stamp s (fun now ->
          History.finish_update s.history ~now op;
          unregister s node r);
      tele s node Telem.update_end;
      resolve r `Done
  | exception Node.Crashed ->
      (* The op stays pending in the history (the node crashed mid-op,
         exactly the model's pending operation); re-raise so the node's
         run loop unwinds. *)
      tele s node Telem.update_end;
      resolve r `Aborted;
      raise Node.Crashed

let run_scan s ~node r () =
  tele s node Telem.scan_begin;
  let op = stamp s (fun now -> History.begin_scan s.history ~now ~node) in
  match s.ops.scan ~node with
  | snap ->
      stamp s (fun now ->
          History.finish_scan s.history ~now op ~snap;
          unregister s node r);
      r.snap <- Some snap;
      tele s node Telem.scan_end;
      resolve r `Done
  | exception Node.Crashed ->
      tele s node Telem.scan_end;
      resolve r `Aborted;
      raise Node.Crashed

(* Group commit: run the queued updates of one node as a single
   protocol-level write of the LAST queued value. Correctness argument
   (DESIGN.md section 6): bases are prefix-closed in per-node program
   order, so a base containing the fused write's value implies every
   coalesced earlier value — linearize the skipped updates immediately
   before the fused one. Only the fused write enters the checked
   history; the coalesced requests are acknowledged as front-end
   write-backs once it completes.

   Submission is lock-free: clients push into the node's MPMC
   sub-queue, and the first pusher after an empty drain CAS-claims
   [batch_draining] and posts this work item. The drainer resets the
   flag only after seeing the queue empty, then re-checks — a producer
   that pushed between the empty pop and the reset saw the flag still
   true and scheduled nothing, so the drainer must reschedule itself
   (flag handoff, same shape as the eventcount's re-check). *)
let rec drain_batch s node () =
  let rec take acc =
    match Mpmc.pop_opt s.batch_q.(node) with
    | Some it -> take (it :: acc)
    | None -> List.rev acc
  in
  match take [] with
  | [] ->
      Atomic.set s.batch_draining.(node) false;
      if not (Mpmc.is_empty s.batch_q.(node)) then reschedule s node
  | items -> (
      (* [take] pops oldest-first, so the fused value is the last. *)
      let v = fst (List.nth items (List.length items - 1)) in
      let op =
        stamp s (fun now ->
            s.fused_away <- s.fused_away + List.length items - 1;
            History.begin_update s.history ~now ~node ~value:v)
      in
      tele s node (fun nd ->
          Telem.fuse nd ~n:(List.length items);
          Telem.update_begin nd);
      match s.ops.update ~node v with
      | () ->
          stamp s (fun now -> History.finish_update s.history ~now op);
          tele s node Telem.update_end;
          List.iter (fun (_, r) -> resolve r `Done) items;
          drain_batch s node ()
      | exception Node.Crashed ->
          tele s node Telem.update_end;
          (* Popped but unfinished: abort them ourselves — the crash
             sweep can no longer see them. [resolve] is idempotent, so
             racing the sweep over not-yet-popped items is safe. *)
          List.iter (fun (_, r) -> resolve r `Aborted) items;
          raise Node.Crashed)

and reschedule s node =
  if Atomic.compare_and_set s.batch_draining.(node) false true then
    if not (Net.post_work s.net node (drain_batch s node)) then
      (* Crashed: the sweep owns the queue now. *)
      Atomic.set s.batch_draining.(node) false

let submit_direct s ~node work =
  let r = new_reply () in
  Mutex.lock s.lock;
  let accepted =
    if Net.is_crashed s.net node then false
    else begin
      s.in_flight.(node) <- r :: s.in_flight.(node);
      if Net.post_work s.net node (work r) then true
      else begin
        (* Poisoned between the check and the post; nothing will run. *)
        unregister s node r;
        false
      end
    end
  in
  Mutex.unlock s.lock;
  if accepted then ((await_reply r :> [ `Done | `Aborted | `Rejected ]), r)
  else (`Rejected, r)

(* Lock-free batched submission: push, make sure a drainer is (or will
   be) running, then handle the one race the queue cannot: a crash
   sweep that drained *before* our push landed would strand the reply
   forever, so after the push we re-check the crash flag and abort our
   own request — idempotently, so losing the race to the sweep, the
   restart drain, or even a completing drainer is harmless. *)
let submit_batched_update s ~node v =
  if Net.is_crashed s.net node then `Rejected
  else begin
    let r = new_reply () in
    Mpmc.push s.batch_q.(node) (v, r);
    if not (Atomic.get s.batch_draining.(node)) then reschedule s node;
    if Net.is_crashed s.net node then resolve r `Aborted;
    (await_reply r :> [ `Done | `Aborted | `Rejected ])
  end

let update s ~node v =
  if s.batch then submit_batched_update s ~node v
  else fst (submit_direct s ~node (fun r -> run_update s ~node v r))

let scan s ~node =
  match submit_direct s ~node (fun r -> run_scan s ~node r) with
  | `Done, r -> (
      match r.snap with Some snap -> `Snap snap | None -> assert false)
  | `Aborted, _ -> `Aborted
  | `Rejected, _ -> `Rejected

(* Abort everything queued for node [i]'s group commit. Runs as a
   concurrent MPMC consumer: racing the dying drainer (it aborts what
   it already popped) and late pushers (they self-abort after their
   post-push re-check) is safe because [resolve] is idempotent. *)
let sweep_batch s i =
  let rec sweep () =
    match Mpmc.pop_opt s.batch_q.(i) with
    | Some (_, r) ->
        resolve r `Aborted;
        sweep ()
    | None -> ()
  in
  sweep ();
  (* The drain flag belongs to the dead incarnation: without this reset,
     a post-restart batched update would see [batch_draining] still true,
     queue itself, and wait forever for a drain work item that died with
     the old domain. *)
  Atomic.set s.batch_draining.(i) false

let crash_node s i =
  Net.crash s.net i;
  Mutex.lock s.lock;
  let victims = s.in_flight.(i) in
  s.in_flight.(i) <- [];
  Mutex.unlock s.lock;
  sweep_batch s i;
  (* Items popped from the mailbox but not yet finished unwind through
     [Node.Crashed] and resolve themselves; everything else is resolved
     here. Either way [resolve] fires exactly once per reply. *)
  List.iter (fun r -> resolve r `Aborted) victims

let restart_node s i =
  if not (Net.is_crashed s.net i) then
    invalid_arg "Rt.Service.restart_node: node is not crashed";
  let t_restart = Net.now s.net in
  (* Restart is not resurrection: whatever the old incarnation left
     pending in the history is aborted now — the new incarnation's
     operations are fresh invocations by the same node id. The abort is
     stamped with its own reading of the clock: [t_restart] was taken
     outside the lock, and a concurrent op stamped in between would
     make the feed run backwards. *)
  stamp s (fun now ->
      s.recovering.(i) <- true;
      History.abort_node s.history ~now ~node:i);
  (* Stragglers that pushed between the crash sweep and now have
     already self-aborted their replies; drop their queue entries and
     re-arm the drain flag before the node serves again. *)
  sweep_batch s i;
  let replayed = Persist.Store.size s.stores.(i) in
  (* The dead domain has exited, so this thread owns the node: reset the
     protocol's volatile state BEFORE reviving the network (the same
     order as the simulator restart — no message may reach a half-reset
     node), then run the blocking rejoin as the first work item of the
     fresh domain. *)
  let t_replay0 = Net.now s.net in
  s.ops.begin_recovery ~node:i;
  let t_replay1 = Net.now s.net in
  Net.restart s.net i;
  let posted =
    Net.post_work s.net i (fun () ->
        (* The replay ran on the restarter thread while the node's domain
           was provably dead; the fresh incarnation stamps it into its
           own ring retroactively (explicit timestamps), so the ring
           still has a single writer. *)
        tele s i (fun nd ->
            Telem.replay nd ~t0:t_replay0 ~t1:t_replay1;
            Telem.rejoin_begin nd);
        s.ops.recover ~node:i;
        tele s i Telem.rejoin_end;
        let ready = Net.now s.net -. t_restart in
        (* Probe SCAN: the recovered node's first served operation,
           stamped into the checked history like any client request. *)
        let op =
          stamp s (fun now -> History.begin_scan s.history ~now ~node:i)
        in
        let snap = s.ops.scan ~node:i in
        stamp s (fun now ->
            History.finish_scan s.history ~now op ~snap;
            s.recovering.(i) <- false;
            s.recoveries <-
              {
                rec_node = i;
                rec_replayed = replayed;
                rec_ready_after = ready;
                rec_first_op = now -. t_restart;
              }
              :: s.recoveries))
  in
  if not posted then
    (* Crashed again between restart and the post; leave it down. *)
    ()

let create ?(batch = false) ?(recorder = true) ?(online = false)
    ?monitor_throttle ?mutation ?wal_dir ~algo ~n ~f () =
  (* The causal log rides with the online monitor: the verdict's slice
     is replayed from it. *)
  let net = Net.create ~recorder ~causal:online ~n () in
  (* Every node gets a durable store: file-backed WALs under [wal_dir]
     when given (the real crash-recovery path — survives the process),
     in-memory otherwise (models durable memory; survives [crash_node],
     which only tears down the domain). *)
  Option.iter
    (fun dir ->
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    wal_dir;
  let stores =
    Array.init n (fun i ->
        match wal_dir with
        | Some dir ->
            Persist.Store.file
              (Filename.concat dir (Printf.sprintf "node-%d.wal" i))
        | None -> Persist.Store.mem_store (Persist.Store.mem ()))
  in
  let ops =
    Aso_core.Handle.create ?mutation algo (Net.backend net) ~f
      ~store:(fun i -> Some stores.(i))
  in
  let live =
    if online then
      Some
        (Live_monitor.create ~mode:(Aso_core.Handle.mode algo)
           ?causal:(Net.causal net) ?throttle:monitor_throttle
           ~metrics:(Net.metrics net)
           ~now:(fun () -> Net.now net)
           ~n ())
    else None
  in
  {
    net;
    n;
    ops;
    stores;
    batch;
    lock = Mutex.create ();
    history = History.create ?observe:(Option.map Live_monitor.push live) ();
    in_flight = Array.make n [];
    batch_q = Array.init n (fun _ -> Mpmc.create ());
    batch_draining = Array.init n (fun _ -> Atomic.make false);
    recovering = Array.make n false;
    recoveries = [];
    fused_away = 0;
    tnodes =
      (match Net.telem net with
      | Some tl -> Array.init n (fun i -> Some (Telem.node tl i))
      | None -> Array.make n None);
    live;
  }

let start s =
  Net.start s.net;
  Option.iter Live_monitor.start s.live

let stop s =
  Net.stop s.net;
  (* Drain-then-join: every event stamped before the domains stopped is
     still checked, so a violation near the end of the run is caught
     here rather than left to the batch pass. *)
  Option.iter (fun lm -> ignore (Live_monitor.stop lm : _ option)) s.live

let history s = s.history
let net s = s.net
let live_monitor s = s.live
let recorder s = Net.recorder s.net
let stats_snapshot s = Obs.Metrics.snapshot (Net.metrics s.net)

let recoveries s = List.rev s.recoveries

let fused_updates s = s.fused_away

let deployment s =
  let session =
    {
      Load.update = (fun ~node v -> update s ~node v);
      scan =
        (fun ~node ->
          match scan s ~node with
          | `Snap _ -> `Done
          | (`Rejected | `Aborted) as o -> o);
      close = ignore;
    }
  in
  {
    Load.n = s.n;
    up = (fun i -> not (Net.is_crashed s.net i || s.recovering.(i)));
    session = (fun _ -> session);
    crash = crash_node s;
    restart = restart_node s;
    halted =
      (fun () ->
        match s.live with
        | Some lm -> Live_monitor.tripped lm <> None
        | None -> false);
    metrics = Net.metrics s.net;
  }
