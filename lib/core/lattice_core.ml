module Msg = struct
  type 'v t =
    | Value of { ts : Timestamp.t; value : 'v }
    | Read_tag of { req : int }
    | Read_ack of { req : int; tag : int }
    | Write_tag of { req : int; tag : int }
    | Write_ack of { req : int }
    | Echo_tag of { tag : int }
    | Good_la of { tag : int }
    | Recover_pull of { req : int }
    | Recover_push of {
        req : int;
        entries : (Timestamp.t * 'v) list;
        max_tag : int;
      }

  let kind = function
    | Value _ -> "value"
    | Read_tag _ -> "readTag"
    | Read_ack _ -> "readAck"
    | Write_tag _ -> "writeTag"
    | Write_ack _ -> "writeAck"
    | Echo_tag _ -> "echoTag"
    | Good_la _ -> "goodLA"
    | Recover_pull _ -> "recoverPull"
    | Recover_push _ -> "recoverPush"
end

type 'v node = {
  id : int;
  mutable kernel : 'v Eq_kernel.t;
  mutable max_tag : int;
  (* Lattice operations run by this node, ever; operations diff it to
     measure their own rounds-per-op. *)
  mutable lattice_count : int;
  (* tag -> first borrowed view announced for that tag (line 49) *)
  borrowed : (int, View.t) Hashtbl.t;
  mutable reads : Collector.t;
  mutable writes : Collector.t;
  (* Recover_pull ack collection; lives beside reads/writes so a rejoin
     is just one more quorum phase. *)
  mutable pulls : Collector.t;
  (* The node's lifetime condition. [changed] wraps it with the current
     incarnation's generation guard; protocol code only ever sees the
     wrapper. *)
  changed_raw : Backend.condition;
  mutable changed : Backend.condition;
  (* Incarnation counter. A fiber suspended inside a pre-crash operation
     may be woken by a queued signal after the restart with a predicate
     the rebuilt state happens to satisfy; the generation guard in
     [changed] makes every stale predicate false forever, so zombie
     fibers park instead of completing a dead operation. *)
  generation : int ref;
  mutable recovering : bool;
  (* Write-ahead lattice log; [None] = volatile node (no restart). *)
  mutable store : 'v Persist.Store.t option;
  mutable busy : bool;
  (* Observer for good-lattice-operation views as they become known
     locally (via "goodLA"); the SSO's fast-scan path feeds on this. *)
  mutable good_view_hook : (View.t -> unit) option;
}

(* Generation-guarded face of [changed_raw] for incarnation [g]: awaits
   registered by a dead incarnation can never see a true predicate
   again. Signals are generation-oblivious — they wake every waiter,
   current and stale; the stale ones re-suspend. *)
let guarded_condition ~raw ~gen g =
  {
    Backend.await =
      (fun pred -> raw.Backend.await (fun () -> !gen = g && pred ()));
    signal = raw.Backend.signal;
  }

type stats = {
  mutable lattice_ops : int;
  mutable good_lattice_ops : int;
  mutable direct_views : int;
  mutable indirect_views : int;
}

type mutation = Quorum_off_by_one | Skip_write_tag | Stale_renewal

type 'v t = {
  b : 'v Msg.t Backend.net;
  (* Set when the deployment was built by [create] on the simulator;
     sim-only layers (substrate chaos, the model checker's crash/replay
     hooks) reach the concrete network through [net]. *)
  mutable sim : 'v Msg.t Sim.Network.t option;
  n : int;
  f : int;
  nodes : 'v node array;
  stats : stats;
  (* Ablation switch for technique (T2): when off, a renewal keeps
     running lattice operations at fresh tags instead of borrowing. *)
  mutable borrowing : bool;
  (* Test-only seeded bug, for mutation-sensitivity tests of the model
     checker: the explorer must be able to find the interleavings these
     mutants break on. Never set outside tests/replays. *)
  mutable mutation : mutation option;
  obs : Obs.Trace.t;
  (* Registry mirrors of [stats], so campaign/bench aggregation sees the
     protocol counters next to the network's. *)
  c_lattice_ops : Obs.Metrics.counter;
  c_good_lattice_ops : Obs.Metrics.counter;
  c_direct_views : Obs.Metrics.counter;
  c_indirect_views : Obs.Metrics.counter;
}

let now t = t.b.Backend.now ()
let trace t = t.obs

(* Protocol-phase span around a blocking section, on the node's track.
   A crashed node's fiber simply never resumes, leaving an open span —
   which is exactly what its track should show. The clock closure and
   the [span_tag] argument list are built only when tracing is on: rt's
   trace is {!Obs.Trace.noop}, and these run several times per
   operation. *)
let span t nd ?cat name f =
  if Obs.Trace.enabled t.obs then
    Obs.Trace.span t.obs ~now:(fun () -> now t) ~pid:nd.id ?cat name f
  else f ()

(* A phase span whose begin carries the phase's tag. *)
let span_tag t nd name tag f =
  if Obs.Trace.enabled t.obs then
    Obs.Trace.span t.obs ~now:(fun () -> now t) ~pid:nd.id
      ~args:[ ("tag", Obs.Trace.Int tag) ]
      name f
  else f ()

(* Handlers run atomically (single engine step on sim, single mailbox
   item on rt) and end with one signal, matching the "all event handlers
   executed atomically" requirement. *)
let handle t nd ~src msg =
  (match msg with
  | Msg.Value { ts; value } -> Eq_kernel.receive nd.kernel ~src ts value
  | Msg.Read_tag { req } ->
      t.b.Backend.send ~src:nd.id ~dst:src
        (Msg.Read_ack { req; tag = nd.max_tag })
  | Msg.Read_ack { req; tag } ->
      Collector.record nd.reads ~req ~sender:src ~payload:tag
  | Msg.Write_tag { req; tag } ->
      if tag > nd.max_tag then begin
        nd.max_tag <- tag;
        t.b.Backend.broadcast ~src:nd.id (Msg.Echo_tag { tag })
      end;
      (* Unconditional ack; see interface notes. *)
      t.b.Backend.send ~src:nd.id ~dst:src (Msg.Write_ack { req })
  | Msg.Write_ack { req } ->
      Collector.record nd.writes ~req ~sender:src ~payload:0
  | Msg.Echo_tag { tag } -> if tag > nd.max_tag then nd.max_tag <- tag
  | Msg.Good_la { tag } ->
      (* FIFO delivery means [V.(src)] here is exactly the sender's view
         when it announced, so the restriction below reconstructs the
         sender's equivalence set (the view we may borrow at line 29). *)
      let borrowed_view =
        View.restrict (Eq_kernel.view nd.kernel src) ~max_tag:tag
      in
      if not (Hashtbl.mem nd.borrowed tag) then
        Hashtbl.replace nd.borrowed tag borrowed_view;
      Option.iter (fun hook -> hook borrowed_view) nd.good_view_hook
  | Msg.Recover_pull { req } ->
      (* State transfer for a rejoining peer: everything this node has
         seen, plus its tag watermark. The payload rides the ordinary
         channel, so FIFO guarantees it reflects every pre-crash
         broadcast of the puller this node already delivered. *)
      let entries =
        View.fold
          (fun ts acc -> (ts, Eq_kernel.value_of nd.kernel ts) :: acc)
          (Eq_kernel.my_view nd.kernel) []
      in
      t.b.Backend.send ~src:nd.id ~dst:src
        (Msg.Recover_push { req; entries; max_tag = nd.max_tag })
  | Msg.Recover_push { req; entries; max_tag } ->
      (* Feed the transferred entries through the kernel as if the
         pushing peer had announced them: rebuilds V.(src) (so EQ can
         hold again) and re-forwards anything genuinely fresh. Entries
         minted by this node's previous incarnation raise the mint
         watermark — the log may have lost their suffix. *)
      List.iter
        (fun (ts, value) ->
          Eq_kernel.receive nd.kernel ~src ts value;
          if Timestamp.writer ts = nd.id then
            nd.max_tag <- max nd.max_tag (Timestamp.tag ts))
        entries;
      if max_tag > nd.max_tag then nd.max_tag <- max_tag;
      Collector.record nd.pulls ~req ~sender:src ~payload:max_tag);
  nd.changed.Backend.signal ()

let create_on (b : 'v Msg.t Backend.net) ~f =
  let n = b.Backend.n in
  Quorum.check_crash ~n ~f;
  b.Backend.set_msg_label Msg.kind;
  let make_node id =
    let changed_raw = b.Backend.new_condition ~node:id in
    let forward ts value =
      b.Backend.broadcast ~src:id (Msg.Value { ts; value })
    in
    let gen = ref 0 in
    let changed = guarded_condition ~raw:changed_raw ~gen 0 in
    {
      id;
      kernel = Eq_kernel.create ~n ~me:id ~forward ~changed;
      max_tag = 0;
      lattice_count = 0;
      borrowed = Hashtbl.create 16;
      reads = Collector.create ();
      writes = Collector.create ();
      pulls = Collector.create ();
      changed_raw;
      changed;
      generation = gen;
      recovering = false;
      store = None;
      busy = false;
      good_view_hook = None;
    }
  in
  let metrics = b.Backend.metrics in
  let t =
    {
      b;
      sim = None;
      n;
      f;
      nodes = Array.init n make_node;
      stats =
        { lattice_ops = 0; good_lattice_ops = 0; direct_views = 0;
          indirect_views = 0 };
      borrowing = true;
      mutation = None;
      obs = b.Backend.trace;
      c_lattice_ops = Obs.Metrics.counter metrics "aso.lattice_ops";
      c_good_lattice_ops = Obs.Metrics.counter metrics "aso.good_lattice_ops";
      c_direct_views = Obs.Metrics.counter metrics "aso.direct_views";
      c_indirect_views = Obs.Metrics.counter metrics "aso.indirect_views";
    }
  in
  Array.iter
    (fun nd -> b.Backend.set_handler nd.id (handle t nd))
    t.nodes;
  t

let create engine ~n ~f ~delay =
  let net = Sim.Network.create engine ~n ~delay in
  let t = create_on (Backend_sim.net net) ~f in
  t.sim <- Some net;
  (* Simulator deployments are restart-capable out of the box: the
     in-memory durable store lives outside the node, so it survives a
     [crash]. Tests that model torn tails replace it ([set_store]) with
     a store they hold the [lose_suffix] handle to. *)
  Array.iter
    (fun nd -> nd.store <- Some (Persist.Store.mem_store (Persist.Store.mem ())))
    t.nodes;
  t

let n t = t.n
let f t = t.f
let backend t = t.b

let net t =
  match t.sim with
  | Some net -> net
  | None ->
      invalid_arg
        (Printf.sprintf "Lattice_core.net: deployment runs on the %S backend"
           t.b.Backend.backend_name)

let node t i = t.nodes.(i)
let node_id nd = nd.id
let stats t = t.stats
let node_lattice_count nd = nd.lattice_count
let max_tag nd = nd.max_tag
let my_view nd = Eq_kernel.my_view nd.kernel
let kernel nd = nd.kernel

let begin_op nd =
  if nd.busy then
    invalid_arg "Lattice_core: concurrent operation at a sequential node";
  nd.busy <- true

let end_op nd = nd.busy <- false

let quorum t =
  match t.mutation with
  | Some Quorum_off_by_one -> t.n - t.f - 1
  | _ -> t.n - t.f

let read_tag t nd =
  span t nd "readTag" @@ fun () ->
  let req = Collector.fresh nd.reads in
  t.b.Backend.broadcast ~src:nd.id (Msg.Read_tag { req });
  nd.changed.Backend.await (fun () ->
      Collector.count nd.reads ~req >= quorum t);
  let tag = Collector.max_payload nd.reads ~req in
  Collector.forget nd.reads ~req;
  tag

let write_tag t nd tag =
  span_tag t nd "writeTag" tag @@ fun () ->
  let req = Collector.fresh nd.writes in
  t.b.Backend.broadcast ~src:nd.id (Msg.Write_tag { req; tag });
  nd.changed.Backend.await (fun () ->
      Collector.count nd.writes ~req >= quorum t);
  Collector.forget nd.writes ~req

let fresh_timestamp _t nd r = Timestamp.make ~tag:(r + 1) ~writer:nd.id

(* Write-ahead discipline: the mint is durable before any other node can
   see it. A crash between append and broadcast loses only a value
   nobody observed; a crash after the broadcast leaves a logged mint the
   rejoin replays — there is no window where the system remembers a
   value its writer's log does not. *)
let broadcast_value t nd ts value =
  (match nd.store with
  | Some s ->
      Persist.Store.append s
        (Persist.Record.Entry
           { tag = Timestamp.tag ts; writer = Timestamp.writer ts; value })
  | None -> ());
  Eq_kernel.local_insert nd.kernel ts value;
  t.b.Backend.broadcast ~src:nd.id (Msg.Value { ts; value })

let lattice t nd r =
  t.stats.lattice_ops <- t.stats.lattice_ops + 1;
  Obs.Metrics.incr t.c_lattice_ops;
  nd.lattice_count <- nd.lattice_count + 1;
  span_tag t nd "lattice" r @@ fun () ->
  if t.mutation <> Some Skip_write_tag then write_tag t nd r;
  let v_star = Eq_kernel.await_eq nd.kernel ~quorum:(quorum t) ~max_tag:(Some r) in
  (* Lines 16-21 run without suspension: atomic w.r.t. handlers. *)
  if nd.max_tag <= r then begin
    t.stats.good_lattice_ops <- t.stats.good_lattice_ops + 1;
    Obs.Metrics.incr t.c_good_lattice_ops;
    t.b.Backend.broadcast ~src:nd.id (Msg.Good_la { tag = r });
    (true, v_star)
  end
  else (false, View.empty)

let lattice_renewal t nd r0 =
  span_tag t nd "latticeRenewal" r0 @@ fun () ->
  let rec phases phase r =
    let ok, view = lattice t nd r in
    if ok then `Direct view
    else if phase = 3 && t.borrowing then `Borrow r
    else
      (* The Stale_renewal mutant retries at the tag that just failed
         instead of the refreshed [maxTag] — the renewal never catches
         up with concurrent writers. *)
      phases (phase + 1)
        (match t.mutation with Some Stale_renewal -> r | _ -> nd.max_tag)
  in
  match phases 1 r0 with
  | `Direct view ->
      t.stats.direct_views <- t.stats.direct_views + 1;
      Obs.Metrics.incr t.c_direct_views;
      view
  | `Borrow r ->
      (* [r] is the tag of the third, failed, lattice operation. A good
         lattice operation with this exact tag exists (the phase-0
         argument of Section III-E), so a "goodLA" for it arrives —
         possibly it already did, hence awaiting on the table, not on
         the message. *)
      span_tag t nd "borrowWait" r (fun () ->
          nd.changed.Backend.await (fun () -> Hashtbl.mem nd.borrowed r));
      t.stats.indirect_views <- t.stats.indirect_views + 1;
      Obs.Metrics.incr t.c_indirect_views;
      Hashtbl.find nd.borrowed r

let extract t nd view =
  View.extract view ~n:t.n ~value_of:(Eq_kernel.value_of nd.kernel)

let set_good_view_hook nd hook = nd.good_view_hook <- Some hook

(* ---- crash recovery -------------------------------------------------- *)

let set_store nd s = nd.store <- Some s
let store nd = nd.store
let recovering nd = nd.recovering

(* Collector request ids must be disjoint across incarnations: a
   pre-crash ack arriving late must not count toward a post-restart
   phase. The epoch (number of Restart records in the log, including the
   one just appended) is durable, so even a restart-of-a-restart gets a
   fresh range. *)
let epoch_stride = 1_000_000

let begin_recovery t nd =
  let s =
    match nd.store with
    | Some s -> s
    | None ->
        invalid_arg
          "Lattice_core.begin_recovery: node has no durable store \
           (set_store) to recover from"
  in
  Persist.Store.append s Persist.Record.Restart;
  let epoch =
    List.fold_left
      (fun k r -> match r with Persist.Record.Restart -> k + 1 | _ -> k)
      0 (Persist.Store.read s)
  in
  incr nd.generation;
  let g = !(nd.generation) in
  nd.changed <- guarded_condition ~raw:nd.changed_raw ~gen:nd.generation g;
  let forward ts value =
    t.b.Backend.broadcast ~src:nd.id (Msg.Value { ts; value })
  in
  nd.kernel <- Eq_kernel.create ~n:t.n ~me:nd.id ~forward ~changed:nd.changed;
  nd.max_tag <- 0;
  Hashtbl.reset nd.borrowed;
  let first = epoch * epoch_stride in
  nd.reads <- Collector.create ~first ();
  nd.writes <- Collector.create ~first ();
  nd.pulls <- Collector.create ~first ();
  nd.busy <- false;
  nd.recovering <- true

let recover t nd =
  if not nd.recovering then
    invalid_arg "Lattice_core.recover: call begin_recovery first";
  span t nd ~cat:"op" "recover" @@ fun () ->
  begin_op nd;
  Fun.protect
    ~finally:(fun () ->
      nd.recovering <- false;
      end_op nd)
  @@ fun () ->
  (* 1. Replay the durable log: re-insert every surviving mint and
     re-announce it (idempotent at every receiver — duplicates are
     neither re-stored nor re-forwarded). This is NOT broadcast_value:
     replay must not append to the log it is reading. *)
  let records =
    match nd.store with Some s -> Persist.Store.read s | None -> []
  in
  let watermark = ref 0 in
  span t nd "replayLog" (fun () ->
      List.iter
        (function
          | Persist.Record.Entry { tag; writer; value } ->
              let ts = Timestamp.make ~tag ~writer in
              if writer = nd.id then watermark := max !watermark tag;
              Eq_kernel.local_insert nd.kernel ts value;
              t.b.Backend.broadcast ~src:nd.id (Msg.Value { ts; value })
          | Persist.Record.Restart -> ())
        records);
  (* 2. Quorum state pull: catch up on everything minted while this node
     was down (and recover any own mint the log's lost suffix dropped —
     FIFO channels mean a peer's push reflects every pre-crash broadcast
     of ours it delivered). The pushes also rebuild enough per-peer view
     state for EQ to hold again. *)
  span t nd "statePull" (fun () ->
      let req = Collector.fresh nd.pulls in
      t.b.Backend.broadcast ~src:nd.id (Msg.Recover_pull { req });
      nd.changed.Backend.await (fun () ->
          Collector.count nd.pulls ~req >= quorum t);
      Collector.forget nd.pulls ~req);
  (* 3. Mint fence: writeTag at the watermark plants it at a quorum, so
     every future readTag (quorum intersection) returns at least it and
     every future mint by this node is strictly larger than anything its
     previous incarnation can have minted — restart never re-issues a
     timestamp. *)
  let fence = max nd.max_tag !watermark in
  write_tag t nd fence;
  (* 4. One renewal at a fresh tag: returns a full good-lattice view, so
     the first post-restart SCAN starts from consistent ground. *)
  let r = read_tag t nd in
  lattice_renewal t nd (r + 1)

let set_borrowing t enabled = t.borrowing <- enabled

let set_mutation t m = t.mutation <- m
let mutation t = t.mutation
