module Msg = struct
  type 'v t =
    | Value of { req : int option; ts : Timestamp.t; value : 'v }
    | Value_ack of { req : int }
    | Prop of { round : int; ts : Timestamp.t }
    | Read_round of { req : int }
    | Round_ack of { req : int; round : int }
    | Write_round of { req : int; round : int }
    | Write_round_ack of { req : int }
    | Commit of { req : int; view : Timestamp.t list }
    | Commit_ack of { req : int }
    | Collect_req of { req : int }
    | Collect_reply of { req : int; committed : Timestamp.t list }

  let kind = function
    | Value _ -> "value"
    | Value_ack _ -> "valueAck"
    | Prop _ -> "prop"
    | Read_round _ -> "readRound"
    | Round_ack _ -> "roundAck"
    | Write_round _ -> "writeRound"
    | Write_round_ack _ -> "writeRoundAck"
    | Commit _ -> "commit"
    | Commit_ack _ -> "commitAck"
    | Collect_req _ -> "collect"
    | Collect_reply _ -> "collectReply"
end

module K = Aso_core.Eq_kernel

type 'v node = {
  id : int;
  (* Global value dissemination: forward-once, FIFO — the same
     machinery as EQ-ASO's value layer. *)
  values : 'v K.t;
  (* One LA instance (unit-valued equivalence kernel) per round. *)
  rounds : (int, unit K.t) Hashtbl.t;
  (* Proposals received for rounds before their value arrived. *)
  pending_props : (Timestamp.t, (int * int) list ref) Hashtbl.t;
      (* ts -> (round, src) list *)
  mutable round : int;  (* the node's view of the round counter *)
  mutable seq : int;  (* per-writer value sequence *)
  committed : View.t ref;  (* union of sets committed at this replica *)
  acks : Collector.t;
  collects : (int, View.t ref) Hashtbl.t;
  changed : Sim.Condition.t;
}

type 'v t = {
  net : 'v Msg.t Sim.Network.t;
  n : int;
  f : int;
  nodes : 'v node array;
  mutable rounds_retried : int;
  obs : Obs.Trace.t;
  c_rounds_retried : Obs.Metrics.counter;
}

let span t ~pid =
  Obs.Trace.span t.obs ~pid ~now:(fun () ->
      Sim.Engine.now (Sim.Network.engine t.net))

let round_kernel t nd r =
  match Hashtbl.find_opt nd.rounds r with
  | Some k -> k
  | None ->
      let k =
        K.create ~n:t.n ~me:nd.id
          ~forward:(fun ts () ->
            Sim.Network.broadcast t.net ~src:nd.id (Msg.Prop { round = r; ts }))
          ~changed:(Aso_core.Backend_sim.condition nd.changed)
      in
      Hashtbl.replace nd.rounds r k;
      k

let accept_prop t nd ~src ~round ts =
  K.receive (round_kernel t nd round) ~src ts ()

let handle t nd ~src msg =
  (match msg with
  | Msg.Value { req; ts; value } ->
      K.receive nd.values ~src ts value;
      (match Hashtbl.find_opt nd.pending_props ts with
      | None -> ()
      | Some waiting ->
          Hashtbl.remove nd.pending_props ts;
          List.iter
            (fun (round, psrc) -> accept_prop t nd ~src:psrc ~round ts)
            !waiting);
      Option.iter
        (fun req ->
          Sim.Network.send t.net ~src:nd.id ~dst:src (Msg.Value_ack { req }))
        req
  | Msg.Value_ack { req } -> Collector.record nd.acks ~req ~sender:src ~payload:0
  | Msg.Prop { round; ts } ->
      (* Only adopt proposals whose value is locally available, so that
         extract never dangles; park the rest. *)
      if K.knows nd.values ts then accept_prop t nd ~src ~round ts
      else begin
        match Hashtbl.find_opt nd.pending_props ts with
        | Some waiting -> waiting := (round, src) :: !waiting
        | None -> Hashtbl.replace nd.pending_props ts (ref [ (round, src) ])
      end
  | Msg.Read_round { req } ->
      Sim.Network.send t.net ~src:nd.id ~dst:src
        (Msg.Round_ack { req; round = nd.round })
  | Msg.Round_ack { req; round } ->
      Collector.record nd.acks ~req ~sender:src ~payload:round
  | Msg.Write_round { req; round } ->
      if round > nd.round then nd.round <- round;
      Sim.Network.send t.net ~src:nd.id ~dst:src (Msg.Write_round_ack { req })
  | Msg.Write_round_ack { req } ->
      Collector.record nd.acks ~req ~sender:src ~payload:0
  | Msg.Commit { req; view } ->
      List.iter (fun ts -> nd.committed := View.add ts !(nd.committed)) view;
      Sim.Network.send t.net ~src:nd.id ~dst:src (Msg.Commit_ack { req })
  | Msg.Commit_ack { req } -> Collector.record nd.acks ~req ~sender:src ~payload:0
  | Msg.Collect_req { req } ->
      Sim.Network.send t.net ~src:nd.id ~dst:src
        (Msg.Collect_reply { req; committed = View.elements !(nd.committed) })
  | Msg.Collect_reply { req; committed } -> (
      match Hashtbl.find_opt nd.collects req with
      | None -> ()
      | Some acc ->
          List.iter (fun ts -> acc := View.add ts !acc) committed;
          Collector.record nd.acks ~req ~sender:src ~payload:0));
  Sim.Condition.signal nd.changed

let create engine ~n ~f ~delay =
  Quorum.check_crash ~n ~f;
  let net = Sim.Network.create engine ~n ~delay in
  Sim.Network.set_msg_label net Msg.kind;
  let make_node id =
    let changed = Sim.Condition.create () in
    {
          id;
          values =
            K.create ~n ~me:id
              ~forward:(fun ts value ->
                Sim.Network.broadcast net ~src:id
                  (Msg.Value { req = None; ts; value }))
              ~changed:(Aso_core.Backend_sim.condition changed);
          rounds = Hashtbl.create 8;
          pending_props = Hashtbl.create 8;
          round = 0;
          seq = 0;
          committed = ref View.empty;
          acks = Collector.create ();
          collects = Hashtbl.create 4;
          changed;
        }
  in
  let t =
    { net; n; f; nodes = Array.init n make_node; rounds_retried = 0;
      obs = Sim.Engine.trace engine;
      c_rounds_retried =
        Obs.Metrics.counter (Sim.Network.metrics net) "la.rounds_retried" }
  in
  Array.iter (fun nd -> Sim.Network.set_handler net nd.id (handle t nd)) t.nodes;
  t

let quorum t = t.n - t.f

let await_acks t nd req =
  Sim.Condition.await nd.changed (fun () ->
      Collector.count nd.acks ~req >= quorum t);
  Collector.forget nd.acks ~req

let read_round t nd =
  let req = Collector.fresh nd.acks in
  Sim.Network.broadcast t.net ~src:nd.id (Msg.Read_round { req });
  Sim.Condition.await nd.changed (fun () ->
      Collector.count nd.acks ~req >= quorum t);
  let r = Collector.max_payload nd.acks ~req in
  Collector.forget nd.acks ~req;
  r

let write_round t nd r =
  let req = Collector.fresh nd.acks in
  Sim.Network.broadcast t.net ~src:nd.id (Msg.Write_round { req; round = r });
  await_acks t nd req

let collect t nd =
  let req = Collector.fresh nd.acks in
  Hashtbl.replace nd.collects req (ref !(nd.committed));
  Sim.Network.broadcast t.net ~src:nd.id (Msg.Collect_req { req });
  Sim.Condition.await nd.changed (fun () ->
      Collector.count nd.acks ~req >= quorum t);
  Collector.forget nd.acks ~req;
  let acc = !(Hashtbl.find nd.collects req) in
  Hashtbl.remove nd.collects req;
  acc

let commit t nd view =
  let req = Collector.fresh nd.acks in
  Sim.Network.broadcast t.net ~src:nd.id
    (Msg.Commit { req; view = View.elements view });
  await_acks t nd req

(* One scan attempt in round [r]: propose [base ∪ known values], learn
   through the round's LA instance, commit, confirm the round. *)
let rec attempt t nd r =
  let base = collect t nd in
  let proposal = View.union base (K.my_view nd.values) in
  let kernel = round_kernel t nd r in
  let elements = View.elements proposal in
  List.iter
    (fun ts ->
      (* local insert + broadcast: first sighting per round *)
      if not (K.knows kernel ts) then begin
        K.local_insert kernel ts ();
        Sim.Network.broadcast t.net ~src:nd.id (Msg.Prop { round = r; ts });
        K.receive kernel ~src:nd.id ts ()
      end)
    elements;
  let learned =
    K.await_eq ~must_contain:elements kernel ~quorum:(quorum t) ~max_tag:None
  in
  commit t nd learned;
  let r' = read_round t nd in
  if r' > r then begin
    t.rounds_retried <- t.rounds_retried + 1;
    Obs.Metrics.incr t.c_rounds_retried;
    attempt t nd r'
  end
  else learned

let scan_view t ~node =
  span t ~pid:node ~cat:"op" "SCAN" @@ fun () ->
  let nd = t.nodes.(node) in
  let r = read_round t nd in
  attempt t nd r

let scan t ~node =
  let view = scan_view t ~node in
  let nd = t.nodes.(node) in
  View.extract view ~n:t.n ~value_of:(K.value_of nd.values)

let update t ~node v =
  span t ~pid:node ~cat:"op" "UPDATE" @@ fun () ->
  let nd = t.nodes.(node) in
  (* Read the round first: the quorum answering has forwarded every
     completed update's value to us already (FIFO), which is what makes
     bases prefix-closed across writers (the A4 argument). *)
  let r = read_round t nd in
  nd.seq <- nd.seq + 1;
  let ts = Timestamp.make ~tag:nd.seq ~writer:node in
  K.local_insert nd.values ts v;
  let req = Collector.fresh nd.acks in
  Sim.Network.broadcast t.net ~src:node
    (Msg.Value { req = Some req; ts; value = v });
  await_acks t nd req;
  write_round t nd (r + 1);
  (* Run the scan path until our own value is learned and committed. *)
  let rec ensure () =
    let learned = attempt t nd (read_round t nd) in
    if not (View.mem ts learned) then ensure ()
  in
  ensure ()

let rounds_retried t = t.rounds_retried

let instance t =
  Aso_core.Wiring.instance ~name:"la-aso" ~f:t.f
    ~update:(fun node v -> update t ~node v)
    ~scan:(fun node -> scan t ~node)
    ~net:t.net
    ~value_match:(fun ~writer -> function
      | Msg.Value { ts; _ } ->
          Option.fold ~none:true ~some:(Int.equal (Timestamp.writer ts)) writer
      | _ -> false)
    ()
