module Msg = struct
  type 'v t =
    | Write of { entry : 'v Reg_store.entry }
    | Sync of { node : int; nonce : int }
end

type 'v node = {
  reg : 'v Reg_store.vector;
  mutable seq : int;
  mutable nonce : int;
}

type 'v t = {
  scd : 'v Msg.t Scd_broadcast.t;
  n : int;
  f : int;
  nodes : 'v node array;
  sync_on_update : bool;
  obs : Obs.Trace.t;
  c_syncs : Obs.Metrics.counter;
}

let span t ~pid =
  Obs.Trace.span t.obs ~pid ~now:(fun () ->
      Sim.Engine.now (Sim.Network.engine (Scd_broadcast.net t.scd)))

let create ?(sync_on_update = true) engine ~n ~f ~delay =
  let nodes = Array.init n (fun _ -> { reg = Reg_store.create ~n; seq = 0; nonce = 0 }) in
  let deliver_ref = ref (fun ~node:_ _ -> ()) in
  let scd =
    Scd_broadcast.create engine ~n ~f ~delay ~deliver:(fun ~node batch ->
        !deliver_ref ~node batch)
  in
  let t =
    { scd; n; f; nodes; sync_on_update;
      obs = Sim.Engine.trace engine;
      c_syncs =
        Obs.Metrics.counter
          (Sim.Network.metrics (Scd_broadcast.net scd))
          "scd.syncs" }
  in
  (deliver_ref :=
     fun ~node batch ->
       let nd = t.nodes.(node) in
       List.iter
         (fun (_id, msg) ->
           match msg with
           | Msg.Write { entry } ->
               ignore
                 (Reg_store.merge_entry nd.reg
                    ~writer:(Timestamp.writer entry.Reg_store.ts)
                    entry)
           | Msg.Sync _ -> ())
         batch);
  t

let await_own_delivery t ~node id =
  Sim.Condition.await
    (Scd_broadcast.changed t.scd ~node)
    (fun () -> Scd_broadcast.delivered t.scd ~node id)

let sync t ~node =
  Obs.Metrics.incr t.c_syncs;
  span t ~pid:node "sync" @@ fun () ->
  let nd = t.nodes.(node) in
  nd.nonce <- nd.nonce + 1;
  let id =
    Scd_broadcast.broadcast t.scd ~node (Msg.Sync { node; nonce = nd.nonce })
  in
  await_own_delivery t ~node id

let update t ~node v =
  span t ~pid:node ~cat:"op" "UPDATE" @@ fun () ->
  let nd = t.nodes.(node) in
  nd.seq <- nd.seq + 1;
  let entry =
    { Reg_store.ts = Timestamp.make ~tag:nd.seq ~writer:node; value = v }
  in
  let id = Scd_broadcast.broadcast t.scd ~node (Msg.Write { entry }) in
  await_own_delivery t ~node id;
  if t.sync_on_update then sync t ~node

let scan t ~node =
  span t ~pid:node ~cat:"op" "SCAN" @@ fun () ->
  sync t ~node;
  Reg_store.extract t.nodes.(node).reg

let instance t =
  Aso_core.Wiring.instance ~name:"scd-aso" ~f:t.f
    ~update:(fun node v -> update t ~node v)
    ~scan:(fun node -> scan t ~node)
    ~net:(Scd_broadcast.net t.scd)
    ~value_match:(fun ~writer -> function
      | Scd_broadcast.Wire.Forward { payload = Msg.Write { entry }; _ } ->
          Option.fold ~none:true
            ~some:(Int.equal (Timestamp.writer entry.Reg_store.ts))
            writer
      | Scd_broadcast.Wire.Forward { payload = Msg.Sync _; _ } -> false)
    ()
