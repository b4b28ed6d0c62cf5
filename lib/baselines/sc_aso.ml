type 'v payload = { value : 'v; embedded : 'v payload Reg_store.vector }

module Msg = struct
  type 'v t =
    | Store of { req : int; entry : 'v payload Reg_store.entry }
    | Store_ack of { req : int }
    | Collect_req of { req : int }
    | Collect_reply of { req : int; vector : 'v payload Reg_store.vector }
    | Write_back of { req : int; vector : 'v payload Reg_store.vector }
    | Write_back_ack of { req : int }

  let kind = function
    | Store _ -> "store"
    | Store_ack _ -> "storeAck"
    | Collect_req _ -> "collect"
    | Collect_reply _ -> "collectReply"
    | Write_back _ -> "writeBack"
    | Write_back_ack _ -> "writeBackAck"
end

type 'v node = {
  id : int;
  reg : 'v payload Reg_store.vector;
  acks : Collector.t;
  collects : (int, 'v payload Reg_store.vector) Hashtbl.t;
  changed : Sim.Condition.t;
  mutable seq : int;
}

type 'v t = {
  net : 'v Msg.t Sim.Network.t;
  n : int;
  f : int;
  nodes : 'v node array;
  mutable borrowed_scans : int;
  obs : Obs.Trace.t;
  c_borrowed_scans : Obs.Metrics.counter;
}

let span t ~pid =
  Obs.Trace.span t.obs ~pid ~now:(fun () ->
      Sim.Engine.now (Sim.Network.engine t.net))

let handle t nd ~src msg =
  (match msg with
  | Msg.Store { req; entry } ->
      ignore
        (Reg_store.merge_entry nd.reg ~writer:(Timestamp.writer entry.ts) entry);
      Sim.Network.send t.net ~src:nd.id ~dst:src (Msg.Store_ack { req })
  | Msg.Store_ack { req } | Msg.Write_back_ack { req } ->
      Collector.record nd.acks ~req ~sender:src ~payload:0
  | Msg.Collect_req { req } ->
      Sim.Network.send t.net ~src:nd.id ~dst:src
        (Msg.Collect_reply { req; vector = Reg_store.copy nd.reg })
  | Msg.Collect_reply { req; vector } -> (
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
    { net; n; f; nodes = Array.init n make_node; borrowed_scans = 0;
      obs = Sim.Engine.trace engine;
      c_borrowed_scans =
        Obs.Metrics.counter (Sim.Network.metrics net) "sc.borrowed_scans" }
  in
  Array.iter (fun nd -> Sim.Network.set_handler net nd.id (handle t nd)) t.nodes;
  t

let await_quorum t nd req =
  Sim.Condition.await nd.changed (fun () ->
      Collector.count nd.acks ~req >= t.n - t.f);
  Collector.forget nd.acks ~req

let collect t nd =
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

(* Scan loop with helping. [seen] tracks, per writer, the last timestamp
   observed and how many distinct changes occurred; two changes mean the
   writer completed an embedded scan inside our interval, which we
   borrow (Afek et al.'s argument). *)
let scan_vector t nd =
  let moved = Array.make t.n 0 in
  let last = Array.make t.n None in
  let note vector =
    let borrow = ref None in
    for writer = 0 to t.n - 1 do
      let ts = Reg_store.ts_of vector ~writer in
      (match (last.(writer), ts) with
      | None, Some _ -> ()
      | Some prev, Some now when not (Timestamp.equal prev now) ->
          moved.(writer) <- moved.(writer) + 1;
          if moved.(writer) >= 2 then
            Option.iter (fun e -> borrow := Some e) vector.(writer)
      | _ -> ());
      if ts <> None then last.(writer) <- ts
    done;
    !borrow
  in
  let rec stabilise previous =
    let current = collect t nd in
    match note current with
    | Some (entry : 'v payload Reg_store.entry) ->
        t.borrowed_scans <- t.borrowed_scans + 1;
        Obs.Metrics.incr t.c_borrowed_scans;
        entry.value.embedded
    | None ->
        if Reg_store.equal_ts previous current then current
        else stabilise current
  in
  let first = collect t nd in
  let _ = note first in
  let vector = stabilise first in
  write_back t nd vector;
  vector

let scan t ~node =
  span t ~pid:node ~cat:"op" "SCAN" @@ fun () ->
  let nd = t.nodes.(node) in
  Array.map
    (Option.map (fun (p : 'v payload) -> p.value))
    (Reg_store.extract (scan_vector t nd))

let update t ~node v =
  span t ~pid:node ~cat:"op" "UPDATE" @@ fun () ->
  let nd = t.nodes.(node) in
  let embedded = scan_vector t nd in
  nd.seq <- nd.seq + 1;
  let entry =
    {
      Reg_store.ts = Timestamp.make ~tag:nd.seq ~writer:node;
      value = { value = v; embedded };
    }
  in
  let req = Collector.fresh nd.acks in
  Sim.Network.broadcast t.net ~src:node (Msg.Store { req; entry });
  await_quorum t nd req

let borrowed_scans t = t.borrowed_scans

let instance t =
  Aso_core.Wiring.instance ~name:"sc-aso" ~f:t.f
    ~update:(fun node v -> update t ~node v)
    ~scan:(fun node -> scan t ~node)
    ~net:t.net
    ~value_match:(fun ~writer -> function
      | Msg.Store { entry; _ } ->
          Option.fold ~none:true
            ~some:(Int.equal (Timestamp.writer entry.Reg_store.ts))
            writer
      | _ -> false)
    ()
