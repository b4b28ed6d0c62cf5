module LC = Aso_core.Lattice_core

type algo = Eq_aso | Sso_fast_scan

let algo_name = function Eq_aso -> "eq-aso" | Sso_fast_scan -> "sso-fast-scan"

let algo_of_name s =
  match String.map (function '_' -> '-' | c -> c) (String.lowercase_ascii s) with
  | "eq-aso" -> Some Eq_aso
  | "sso-fast-scan" -> Some Sso_fast_scan
  | _ -> None

let mode = function
  | Eq_aso -> Obs.Monitor.Atomic
  | Sso_fast_scan -> Obs.Monitor.Sequential

type ops = {
  op_update : node:int -> int -> unit;
  op_scan : node:int -> int option array;
  op_begin_recovery : node:int -> unit;
  op_recover : node:int -> unit;
}

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
  f : int;
  ops : ops;
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
     rejoin completes. [pick_node] skips recovering nodes; a racy read
     only costs a request that waits behind the recovery work. *)
  recovering : bool array;
  mutable recoveries : recovery list;
  mutable fused_away : int;
  next_value : int Atomic.t;
  (* Per-node flight-recorder handles ([None] when the recorder is off);
     written only from the owning node's domain, except the retroactive
     replay span in [restart_node] (explicit-timestamp events emitted by
     the fresh incarnation). *)
  tnodes : Telem.node option array;
  (* Live online monitor ([None] unless created with [~online:true]).
     Producers push feed events under [s.lock], with the event timestamp
     read inside the same critical section — that is the total order
     that makes the monitor's time-ordered stream sound (DESIGN.md
     section 6d). *)
  live : Live_monitor.t option;
  (* Service-level instruments, live in the deployment's registry so the
     telemetry endpoint exposes them next to the [net.*] counters. *)
  c_updates_ok : Obs.Metrics.counter;
  c_scans_ok : Obs.Metrics.counter;
  c_rejected : Obs.Metrics.counter;
  c_aborted : Obs.Metrics.counter;
  h_update_lat : Obs.Metrics.log_histogram;
  h_scan_lat : Obs.Metrics.log_histogram;
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
   mailbox queueing, is measured separately by the clients. *)

(* Flight-recorder emission points — all on the node's own domain (the
   work body), so the single-writer contract holds. Span ends fire on
   both the success and the crash-unwind path. *)
let tele s node f = match s.tnodes.(node) with Some nd -> f nd | None -> ()

(* Feed pushes for the live monitor. Callers hold [s.lock] and pass the
   same timestamp they stamped into the history, so feed order agrees
   with timestamp order (the push itself happens inside the critical
   section). *)
let feed s ev = match s.live with Some lm -> Live_monitor.push lm ev | None -> ()

let feed_invoke s ~at (op : History.op) =
  feed s
    (Obs.Monitor.Invoke
       {
         id = op.id;
         node = op.node;
         at;
         op =
           (match op.kind with
           | History.Update v -> Obs.Monitor.Update v
           | History.Scan _ -> Obs.Monitor.Scan);
       })

let run_update s ~node v r () =
  tele s node Telem.update_begin;
  Mutex.lock s.lock;
  let at = Net.now s.net in
  let op = History.begin_update s.history ~now:at ~node ~value:v in
  feed_invoke s ~at op;
  Mutex.unlock s.lock;
  match s.ops.op_update ~node v with
  | () ->
      Mutex.lock s.lock;
      let at = Net.now s.net in
      History.finish_update s.history ~now:at op;
      (* Suppressed if a restart aborted the op first: the monitor saw
         the Abort, and a respond after it would be a false "wf". *)
      if op.aborted = None then
        feed s (Obs.Monitor.Respond_update { id = op.id; at });
      unregister s node r;
      Mutex.unlock s.lock;
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
  Mutex.lock s.lock;
  let at = Net.now s.net in
  let op = History.begin_scan s.history ~now:at ~node in
  feed_invoke s ~at op;
  Mutex.unlock s.lock;
  match s.ops.op_scan ~node with
  | snap ->
      Mutex.lock s.lock;
      let at = Net.now s.net in
      History.finish_scan s.history ~now:at op ~snap;
      if op.aborted = None then
        feed s (Obs.Monitor.Respond_scan { id = op.id; at; snap });
      unregister s node r;
      Mutex.unlock s.lock;
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
      Mutex.lock s.lock;
      s.fused_away <- s.fused_away + List.length items - 1;
      let at = Net.now s.net in
      let op = History.begin_update s.history ~now:at ~node ~value:v in
      feed_invoke s ~at op;
      Mutex.unlock s.lock;
      tele s node (fun nd ->
          Telem.fuse nd ~n:(List.length items);
          Telem.update_begin nd);
      match s.ops.op_update ~node v with
      | () ->
          Mutex.lock s.lock;
          let at = Net.now s.net in
          History.finish_update s.history ~now:at op;
          if op.aborted = None then
            feed s (Obs.Monitor.Respond_update { id = op.id; at });
          Mutex.unlock s.lock;
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

let fresh_value s = Atomic.fetch_and_add s.next_value 1

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
  Mutex.lock s.lock;
  s.recovering.(i) <- true;
  (* Restart is not resurrection: whatever the old incarnation left
     pending in the history is aborted now — the new incarnation's
     operations are fresh invocations by the same node id. The abort
     timestamp is re-read inside the lock: [t_restart] was taken before
     acquisition, and a concurrent op stamped in between would make the
     feed run backwards. *)
  let t_abort = Net.now s.net in
  List.iter
    (fun (op : History.op) ->
      if op.node = i then begin
        History.abort s.history ~now:t_abort op;
        feed s (Obs.Monitor.Abort { id = op.id; at = t_abort })
      end)
    (History.pending s.history);
  Mutex.unlock s.lock;
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
  s.ops.op_begin_recovery ~node:i;
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
        s.ops.op_recover ~node:i;
        tele s i Telem.rejoin_end;
        let ready = Net.now s.net -. t_restart in
        (* Probe SCAN: the recovered node's first served operation,
           stamped into the checked history like any client request. *)
        Mutex.lock s.lock;
        let at = Net.now s.net in
        let op = History.begin_scan s.history ~now:at ~node:i in
        feed_invoke s ~at op;
        Mutex.unlock s.lock;
        let snap = s.ops.op_scan ~node:i in
        Mutex.lock s.lock;
        let at = Net.now s.net in
        History.finish_scan s.history ~now:at op ~snap;
        if op.aborted = None then
          feed s (Obs.Monitor.Respond_scan { id = op.id; at; snap });
        s.recovering.(i) <- false;
        s.recoveries <-
          {
            rec_node = i;
            rec_replayed = replayed;
            rec_ready_after = ready;
            rec_first_op = Net.now s.net -. t_restart;
          }
          :: s.recoveries;
        Mutex.unlock s.lock)
  in
  if not posted then
    (* Crashed again between restart and the post; leave it down. *)
    ()

let attach_stores core stores =
  Array.iteri
    (fun i store -> LC.set_store (LC.node core i) store)
    stores

let ops_of algo b ~f ~stores ~mutation =
  match algo with
  | Eq_aso ->
      let t = Aso_core.Eq_aso.create_on b ~f in
      attach_stores (Aso_core.Eq_aso.core t) stores;
      LC.set_mutation (Aso_core.Eq_aso.core t) mutation;
      {
        op_update = (fun ~node v -> Aso_core.Eq_aso.update t ~node v);
        op_scan = (fun ~node -> Aso_core.Eq_aso.scan t ~node);
        op_begin_recovery =
          (fun ~node -> Aso_core.Eq_aso.begin_recovery t ~node);
        op_recover = (fun ~node -> Aso_core.Eq_aso.recover t ~node);
      }
  | Sso_fast_scan ->
      let t = Aso_core.Sso.create_on b ~f in
      attach_stores (Aso_core.Sso.core t) stores;
      LC.set_mutation (Aso_core.Sso.core t) mutation;
      {
        op_update = (fun ~node v -> Aso_core.Sso.update t ~node v);
        op_scan = (fun ~node -> Aso_core.Sso.scan t ~node);
        op_begin_recovery = (fun ~node -> Aso_core.Sso.begin_recovery t ~node);
        op_recover = (fun ~node -> Aso_core.Sso.recover t ~node);
      }

let create ?(batch = false) ?(recorder = true) ?(online = false)
    ?monitor_throttle ?parking ?mutation ?wal_dir ~algo ~n ~f () =
  (* Causal stamping rides with the online monitor: the verdict's slice
     is built from the network's vector-clock log. *)
  let net = Net.create ~recorder ~causal:online ?parking ~n () in
  (* Every node gets a durable store: file-backed WALs under [wal_dir]
     when given (the real crash-recovery path — survives the process),
     in-memory otherwise (models durable memory; survives [crash_node],
     which only tears down the domain). *)
  let stores =
    Array.init n (fun i ->
        match wal_dir with
        | Some dir ->
            Persist.Store.file
              (Filename.concat dir (Printf.sprintf "node-%d.wal" i))
        | None -> Persist.Store.mem_store (Persist.Store.mem ()))
  in
  let ops = ops_of algo (Net.backend net) ~f ~stores ~mutation in
  let m = Net.metrics net in
  let live =
    if online then
      Some
        (Live_monitor.create ~mode:(mode algo) ?causal:(Net.causal net)
           ?throttle:monitor_throttle ~metrics:m
           ~now:(fun () -> Net.now net)
           ~n ())
    else None
  in
  {
    net;
    n;
    f;
    ops;
    stores;
    batch;
    lock = Mutex.create ();
    history = History.create ();
    in_flight = Array.make n [];
    batch_q = Array.init n (fun _ -> Mpmc.create ());
    batch_draining = Array.init n (fun _ -> Atomic.make false);
    recovering = Array.make n false;
    recoveries = [];
    fused_away = 0;
    next_value = Atomic.make 1;
    tnodes =
      (match Net.telem net with
      | Some tl -> Array.init n (fun i -> Some (Telem.node tl i))
      | None -> Array.make n None);
    live;
    c_updates_ok = Obs.Metrics.counter m "svc.updates_ok";
    c_scans_ok = Obs.Metrics.counter m "svc.scans_ok";
    c_rejected = Obs.Metrics.counter m "svc.rejected";
    c_aborted = Obs.Metrics.counter m "svc.aborted";
    h_update_lat = Obs.Metrics.log_histogram m "svc.update_latency_s";
    h_scan_lat = Obs.Metrics.log_histogram m "svc.scan_latency_s";
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
let metrics s = Net.metrics s.net
let recorder s = Net.recorder s.net
let stats_snapshot s = Obs.Metrics.snapshot (Net.metrics s.net)

(* {2 The closed-loop load service} *)

type report = {
  algorithm : string;
  backend : string;
  rep_n : int;
  rep_f : int;
  clients : int;
  batched : bool;
  duration : float;
  completed_updates : int;
  completed_scans : int;
  rejected : int;
  aborted : int;
  fused_updates : int;
  ops_per_sec : float;
  update_lat : Obs.Hdr.dist;  (** client-observed, seconds *)
  scan_lat : Obs.Hdr.dist;
  crashed_nodes : int list;
  recoveries : recovery list;
  messages_sent : int;
  final_metrics : Obs.Metrics.snapshot;
  history : History.t;
  live_verdict : Live_monitor.verdict option;
      (** the live monitor's violation, when one tripped mid-run *)
  monitor_events_checked : int;
  monitor_scans_verified : int;
}

let rec pick_node s home j =
  if j >= s.n then None
  else
    let c = (home + j) mod s.n in
    if Net.is_crashed s.net c || s.recovering.(c) then pick_node s home (j + 1)
    else Some c

(* Clients record straight into the deployment's registry: the counters
   and log-histograms are atomic, so concurrent client threads need no
   per-client state, and the live telemetry endpoint sees every
   completion as it happens. *)
let monitor_tripped s =
  match s.live with
  | Some lm -> Live_monitor.tripped lm <> None
  | None -> false

let client_loop s ~deadline ~scan_fraction rng home =
  let live = ref true in
  (* Halt intake the moment the live monitor trips: a violated object
     must stop serving, and the early exit is what makes mid-run
     detection observable (the run ends well before the deadline). *)
  while !live && Net.now s.net < deadline && not (monitor_tripped s) do
    match pick_node s home 0 with
    | None -> live := false
    | Some node ->
        let t0 = Net.now s.net in
        if Random.State.float rng 1.0 < scan_fraction then (
          match scan s ~node with
          | `Snap _ ->
              Obs.Metrics.incr s.c_scans_ok;
              Obs.Metrics.record s.h_scan_lat (Net.now s.net -. t0)
          | `Rejected -> Obs.Metrics.incr s.c_rejected
          | `Aborted -> Obs.Metrics.incr s.c_aborted)
        else
          match update s ~node (fresh_value s) with
          | `Done ->
              Obs.Metrics.incr s.c_updates_ok;
              Obs.Metrics.record s.h_update_lat (Net.now s.net -. t0)
          | `Rejected -> Obs.Metrics.incr s.c_rejected
          | `Aborted -> Obs.Metrics.incr s.c_aborted
  done

let run ?(batch = false) ?(recorder = true) ?(online = false) ?monitor_throttle
    ?parking ?mutation ?on_start ?(scan_fraction = 0.2) ?(seed = 42)
    ?(crash = []) ?crash_after ?restart_after ?wal_dir ~algo ~n ~f ~clients
    ~secs () =
  if clients <= 0 then invalid_arg "Rt.Service.run: clients must be positive";
  if secs <= 0. then invalid_arg "Rt.Service.run: secs must be positive";
  let crash = List.sort_uniq compare crash in
  if List.length crash > f then
    invalid_arg "Rt.Service.run: cannot crash more than f nodes";
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Rt.Service.run: crash node out of range")
    crash;
  let crash_delay = Option.value crash_after ~default:(secs /. 2.) in
  (match restart_after with
  | Some r when r <= crash_delay ->
      invalid_arg "Rt.Service.run: restart_after must be after the crash"
  | _ -> ());
  let s =
    create ~batch ~recorder ~online ?monitor_throttle ?parking ?mutation
      ?wal_dir ~algo ~n ~f ()
  in
  start s;
  Option.iter (fun f -> f s) on_start;
  let t_start = Net.now s.net in
  let deadline = t_start +. secs in
  let crasher =
    match crash with
    | [] -> None
    | nodes ->
        Some
          (Thread.create
             (fun () ->
               Thread.delay crash_delay;
               List.iter (fun i -> crash_node s i) nodes;
               match restart_after with
               | None -> ()
               | Some r ->
                   Thread.delay (r -. crash_delay);
                   List.iter
                     (fun i ->
                       if Net.is_crashed s.net i then restart_node s i)
                     nodes)
             ())
  in
  let threads =
    Array.init clients (fun i ->
        let rng = Random.State.make [| seed; i |] in
        Thread.create
          (fun () -> client_loop s ~deadline ~scan_fraction rng (i mod n))
          ())
  in
  Array.iter Thread.join threads;
  Option.iter Thread.join crasher;
  let duration = Net.now s.net -. t_start in
  stop s;
  let live_verdict = Option.bind s.live Live_monitor.tripped in
  let snapshot = Obs.Metrics.snapshot (Net.metrics s.net) in
  let completed_updates = Obs.Metrics.count s.c_updates_ok in
  let completed_scans = Obs.Metrics.count s.c_scans_ok in
  let total = completed_updates + completed_scans in
  {
    algorithm = algo_name algo;
    backend = "rt";
    rep_n = n;
    rep_f = f;
    clients;
    batched = batch;
    duration;
    completed_updates;
    completed_scans;
    rejected = Obs.Metrics.count s.c_rejected;
    aborted = Obs.Metrics.count s.c_aborted;
    fused_updates = s.fused_away;
    ops_per_sec = (if duration > 0. then float_of_int total /. duration else 0.);
    update_lat = Obs.Hdr.snapshot (Obs.Metrics.hdr s.h_update_lat);
    scan_lat = Obs.Hdr.snapshot (Obs.Metrics.hdr s.h_scan_lat);
    crashed_nodes = crash;
    recoveries = List.rev s.recoveries;
    messages_sent =
      Option.value (Obs.Metrics.find_count snapshot "net.sent") ~default:0;
    final_metrics = snapshot;
    history = s.history;
    live_verdict;
    monitor_events_checked =
      (match s.live with Some lm -> Live_monitor.events_checked lm | None -> 0);
    monitor_scans_verified =
      (match s.live with Some lm -> Live_monitor.scans_verified lm | None -> 0);
  }

(* Bench feed: everything here is timing-dependent, hence volatile (the
   CI drift gate must not compare it run-to-run beyond a sanity floor). *)
let volatile_metrics r =
  let mean f =
    match r.recoveries with
    | [] -> 0.
    | l ->
        List.fold_left (fun acc x -> acc +. f x) 0. l
        /. float_of_int (List.length l)
  in
  [
    ("ops_per_sec", r.ops_per_sec);
    ("completed_updates", float_of_int r.completed_updates);
    ("completed_scans", float_of_int r.completed_scans);
    ("fused_updates", float_of_int r.fused_updates);
    ("messages_sent", float_of_int r.messages_sent);
    ("aborted", float_of_int r.aborted);
    ("recoveries", float_of_int (List.length r.recoveries));
    ("recovery_ready_s", mean (fun x -> x.rec_ready_after));
    ("recovery_first_op_s", mean (fun x -> x.rec_first_op));
    ("recovery_replayed", mean (fun x -> float_of_int x.rec_replayed));
  ]
