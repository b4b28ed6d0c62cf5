module Msg = struct
  type 'v t =
    | Write of { req : int; entry : 'v Reg_store.entry }
    | Write_ack of { req : int }
    | Collect_req of { req : int }
    | Collect_reply of { req : int; vector : 'v Reg_store.vector }
    | Write_back of { req : int; vector : 'v Reg_store.vector }
    | Write_back_ack of { req : int }

  let kind = function
    | Write _ -> "write"
    | Write_ack _ -> "writeAck"
    | Collect_req _ -> "collect"
    | Collect_reply _ -> "collectReply"
    | Write_back _ -> "writeBack"
    | Write_back_ack _ -> "writeBackAck"
end

type 'v node = {
  id : int;
  reg : 'v Reg_store.vector;  (* server state: latest entry per writer *)
  acks : Collector.t;
  (* pending collects: merged replies per request *)
  collects : (int, 'v Reg_store.vector) Hashtbl.t;
  changed : Sim.Condition.t;
  mutable seq : int;
}

type 'v t = {
  net : 'v Msg.t Sim.Network.t;
  n : int;
  f : int;
  nodes : 'v node array;
  mutable collect_rounds : int;
  obs : Obs.Trace.t;
  c_collect_rounds : Obs.Metrics.counter;
}

let span t ~pid =
  Obs.Trace.span t.obs ~pid ~now:(fun () ->
      Sim.Engine.now (Sim.Network.engine t.net))

let handle t nd ~src msg =
  (match msg with
  | Msg.Write { req; entry } ->
      ignore (Reg_store.merge_entry nd.reg ~writer:(Timestamp.writer entry.ts) entry);
      Sim.Network.send t.net ~src:nd.id ~dst:src (Msg.Write_ack { req })
  | Msg.Write_ack { req } | Msg.Write_back_ack { req } ->
      Collector.record nd.acks ~req ~sender:src ~payload:0
  | Msg.Collect_req { req } ->
      Sim.Network.send t.net ~src:nd.id ~dst:src
        (Msg.Collect_reply { req; vector = Reg_store.copy nd.reg })
  | Msg.Collect_reply { req; vector } -> (
      (* Replies also fold into the local server copy, keeping collects
         monotone at the scanner: each retry can only differ on truly
         new information. *)
      Reg_store.merge ~into:nd.reg vector;
      match Hashtbl.find_opt nd.collects req with
      | None -> ()
      | Some acc ->
          Reg_store.merge ~into:acc vector;
          Collector.record nd.acks ~req ~sender:src ~payload:0)
  | Msg.Write_back { req; vector } ->
      Reg_store.merge ~into:nd.reg vector;
      Sim.Network.send t.net ~src:nd.id ~dst:src (Msg.Write_back_ack { req }));
  Sim.Condition.signal nd.changed

let create engine ~n ~f ~delay =
  Quorum.check_crash ~n ~f;
  let net = Sim.Network.create engine ~n ~delay in
  Sim.Network.set_msg_label net Msg.kind;
  let make_node id =
    {
      id;
      reg = Reg_store.create ~n;
      acks = Collector.create ();
      collects = Hashtbl.create 8;
      changed = Sim.Condition.create ();
      seq = 0;
    }
  in
  let t =
    { net; n; f; nodes = Array.init n make_node; collect_rounds = 0;
      obs = Sim.Engine.trace engine;
      c_collect_rounds =
        Obs.Metrics.counter (Sim.Network.metrics net) "dc.collect_rounds" }
  in
  Array.iter (fun nd -> Sim.Network.set_handler net nd.id (handle t nd)) t.nodes;
  t

let await_quorum t nd req =
  Sim.Condition.await nd.changed (fun () ->
      Collector.count nd.acks ~req >= t.n - t.f);
  Collector.forget nd.acks ~req

let update t ~node v =
  span t ~pid:node ~cat:"op" "UPDATE" @@ fun () ->
  let nd = t.nodes.(node) in
  nd.seq <- nd.seq + 1;
  let entry = { Reg_store.ts = Timestamp.make ~tag:nd.seq ~writer:node; value = v } in
  let req = Collector.fresh nd.acks in
  Sim.Network.broadcast t.net ~src:node (Msg.Write { req; entry });
  await_quorum t nd req

let collect t nd =
  t.collect_rounds <- t.collect_rounds + 1;
  Obs.Metrics.incr t.c_collect_rounds;
  span t ~pid:nd.id "collect" @@ fun () ->
  let req = Collector.fresh nd.acks in
  Hashtbl.replace nd.collects req (Reg_store.copy nd.reg);
  Sim.Network.broadcast t.net ~src:nd.id (Msg.Collect_req { req });
  Sim.Condition.await nd.changed (fun () ->
      Collector.count nd.acks ~req >= t.n - t.f);
  Collector.forget nd.acks ~req;
  let merged = Hashtbl.find nd.collects req in
  Hashtbl.remove nd.collects req;
  merged

let write_back t nd vector =
  let req = Collector.fresh nd.acks in
  Sim.Network.broadcast t.net ~src:nd.id (Msg.Write_back { req; vector });
  await_quorum t nd req

let scan t ~node =
  span t ~pid:node ~cat:"op" "SCAN" @@ fun () ->
  let nd = t.nodes.(node) in
  let rec stabilise previous =
    let current = collect t nd in
    if Reg_store.equal_ts previous current then current
    else stabilise current
  in
  let stable = stabilise (collect t nd) in
  write_back t nd stable;
  Reg_store.extract stable

let collect_rounds t = t.collect_rounds

let instance t =
  Aso_core.Wiring.instance ~name:"dc-aso" ~f:t.f
    ~update:(fun node v -> update t ~node v)
    ~scan:(fun node -> scan t ~node)
    ~net:t.net
    ~value_match:(fun ~writer -> function
      | Msg.Write { entry; _ } ->
          Option.fold ~none:true
            ~some:(Int.equal (Timestamp.writer entry.Reg_store.ts))
            writer
      | _ -> false)
    ()
