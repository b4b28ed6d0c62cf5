type 'v payload =
  | Value of { ts : Timestamp.t; value : 'v }
  | Fwd of { ts : Timestamp.t }

module Msg = struct
  type 'v t =
    | Rbc of 'v payload Rbc.wire
    | Read_tag of { req : int }
    | Read_ack of { req : int; tag : int }
    | Write_tag of { req : int; tag : int }
    | Write_ack of { req : int }
    | Echo_tag of { tag : int }

  let kind = function
    | Rbc (Rbc.Send _) -> "rbc.send"
    | Rbc (Rbc.Echo _) -> "rbc.echo"
    | Rbc (Rbc.Ready _) -> "rbc.ready"
    | Read_tag _ -> "readTag"
    | Read_ack _ -> "readAck"
    | Write_tag _ -> "writeTag"
    | Write_ack _ -> "writeAck"
    | Echo_tag _ -> "echoTag"
end

type 'v node = {
  id : int;
  rbc : 'v payload Rbc.t;
  kernel : 'v Aso_core.Eq_kernel.t;
  (* forwards received before the writer's own value anchored them *)
  unanchored : (Timestamp.t, int list ref) Hashtbl.t;
  mutable max_tag : int;
  mutable lattice_count : int;
  reads : Collector.t;
  writes : Collector.t;
  changed : Sim.Condition.t;
  mutable busy : bool;
}

type 'v t = {
  net : 'v Msg.t Sim.Network.t;
  n : int;
  f : int;
  max_attempts : int;
  nodes : 'v node array;
  mutable lattice_attempts : int;
  obs : Obs.Trace.t;
  c_lattice_attempts : Obs.Metrics.counter;
  rounds_per_update : Obs.Metrics.histogram;
  rounds_per_scan : Obs.Metrics.histogram;
}

let now t = Sim.Engine.now (Sim.Network.engine t.net)

let span t nd = Obs.Trace.span t.obs ~now:(fun () -> now t) ~pid:nd.id

module K = Aso_core.Eq_kernel

let on_rbc_deliver nd ~src payload =
  match payload with
  | Value { ts; value } ->
      (* Anchor only from the writer's own stream; first anchor wins. *)
      if Timestamp.writer ts = src && not (K.knows nd.kernel ts) then begin
        K.receive nd.kernel ~src ts value;
        match Hashtbl.find_opt nd.unanchored ts with
        | None -> ()
        | Some srcs ->
            Hashtbl.remove nd.unanchored ts;
            List.iter (fun j -> K.receive nd.kernel ~src:j ts value) !srcs
      end
  | Fwd { ts } ->
      if K.knows nd.kernel ts then
        K.receive nd.kernel ~src ts (K.value_of nd.kernel ts)
      else begin
        match Hashtbl.find_opt nd.unanchored ts with
        | Some srcs -> if not (List.mem src !srcs) then srcs := src :: !srcs
        | None -> Hashtbl.replace nd.unanchored ts (ref [ src ])
      end

let handle t nd ~src msg =
  (match msg with
  | Msg.Rbc wire -> Rbc.handle nd.rbc ~src wire
  | Msg.Read_tag { req } ->
      Sim.Network.send t.net ~src:nd.id ~dst:src
        (Msg.Read_ack { req; tag = nd.max_tag })
  | Msg.Read_ack { req; tag } ->
      Collector.record nd.reads ~req ~sender:src ~payload:tag
  | Msg.Write_tag { req; tag } ->
      if tag > nd.max_tag then begin
        nd.max_tag <- tag;
        Sim.Network.broadcast t.net ~src:nd.id (Msg.Echo_tag { tag })
      end;
      Sim.Network.send t.net ~src:nd.id ~dst:src (Msg.Write_ack { req })
  | Msg.Write_ack { req } ->
      Collector.record nd.writes ~req ~sender:src ~payload:0
  | Msg.Echo_tag { tag } -> if tag > nd.max_tag then nd.max_tag <- tag);
  Sim.Condition.signal nd.changed

let create ?(max_attempts = 10_000) engine ~n ~f ~delay =
  Quorum.check_byz ~n ~f;
  let net = Sim.Network.create engine ~n ~delay in
  Sim.Network.set_msg_label net Msg.kind;
  let metrics = Sim.Network.metrics net in
  let make_node id =
    let changed = Sim.Condition.create () in
    (* Delivery closes over the node being built; it only fires once the
       simulation runs, well after [self] is set. *)
    let self = ref None in
    let rbc =
      Rbc.create ~metrics ~n ~f ~me:id
        ~send_wire:(fun ~dst wire ->
          Sim.Network.send net ~src:id ~dst (Msg.Rbc wire))
        ~deliver:(fun ~src payload ->
          Option.iter (fun nd -> on_rbc_deliver nd ~src payload) !self)
        ()
    in
    let forward ts _value = Rbc.broadcast rbc (Fwd { ts }) in
    let nd =
      {
        id;
        rbc;
        kernel =
          K.create ~n ~me:id ~forward
            ~changed:(Aso_core.Backend_sim.condition changed);
        unanchored = Hashtbl.create 16;
        max_tag = 0;
        lattice_count = 0;
        reads = Collector.create ();
        writes = Collector.create ();
        changed;
        busy = false;
      }
    in
    self := Some nd;
    nd
  in
  let t =
    { net; n; f; max_attempts; nodes = Array.init n make_node;
      lattice_attempts = 0;
      obs = Sim.Engine.trace engine;
      c_lattice_attempts = Obs.Metrics.counter metrics "byz.lattice_attempts";
      rounds_per_update = Obs.Metrics.histogram metrics "aso.rounds_per_update";
      rounds_per_scan = Obs.Metrics.histogram metrics "aso.rounds_per_scan" }
  in
  Array.iter (fun nd -> Sim.Network.set_handler net nd.id (handle t nd)) t.nodes;
  t

let quorum t = t.n - t.f

let read_tag t nd =
  span t nd "readTag" @@ fun () ->
  let req = Collector.fresh nd.reads in
  Sim.Network.broadcast t.net ~src:nd.id (Msg.Read_tag { req });
  Sim.Condition.await nd.changed (fun () ->
      Collector.count nd.reads ~req >= quorum t);
  let tag = Collector.max_payload nd.reads ~req in
  Collector.forget nd.reads ~req;
  tag

let write_tag t nd tag =
  span t nd ~args:[ ("tag", Obs.Trace.Int tag) ] "writeTag" @@ fun () ->
  let req = Collector.fresh nd.writes in
  Sim.Network.broadcast t.net ~src:nd.id (Msg.Write_tag { req; tag });
  Sim.Condition.await nd.changed (fun () ->
      Collector.count nd.writes ~req >= quorum t);
  Collector.forget nd.writes ~req

let lattice t nd r =
  t.lattice_attempts <- t.lattice_attempts + 1;
  Obs.Metrics.incr t.c_lattice_attempts;
  nd.lattice_count <- nd.lattice_count + 1;
  span t nd ~args:[ ("tag", Obs.Trace.Int r) ] "lattice" @@ fun () ->
  write_tag t nd r;
  let v_star = K.await_eq nd.kernel ~quorum:(quorum t) ~max_tag:(Some r) in
  if nd.max_tag <= r then Some v_star else None

(* Renewal without borrowing: repeat at the freshest tag until good. *)
let renew t nd r0 =
  span t nd ~args:[ ("tag", Obs.Trace.Int r0) ] "latticeRenewal" @@ fun () ->
  let rec go attempt r =
    if attempt > t.max_attempts then
      failwith "Byz_eq_aso: lattice renewal starved (max_attempts exceeded)";
    match lattice t nd r with
    | Some view -> view
    | None -> go (attempt + 1) (max nd.max_tag (r + 1))
  in
  go 1 r0

let begin_op nd =
  if nd.busy then invalid_arg "Byz_eq_aso: concurrent operation at a node";
  nd.busy <- true

let observing_rounds hist nd f =
  let before = nd.lattice_count in
  let result = f () in
  Obs.Metrics.observe hist (float_of_int (nd.lattice_count - before));
  result

let update_with_view t ~node v =
  let nd = t.nodes.(node) in
  begin_op nd;
  Fun.protect ~finally:(fun () -> nd.busy <- false) @@ fun () ->
  span t nd ~cat:"op" "UPDATE" @@ fun () ->
  observing_rounds t.rounds_per_update nd @@ fun () ->
  let r = read_tag t nd in
  let ts = Timestamp.make ~tag:(r + 1) ~writer:node in
  Rbc.broadcast nd.rbc (Value { ts; value = v });
  (* Phase 0, then renewal; the phase-0 result is discarded as in the
     crash algorithm. *)
  let (_ : View.t option) = lattice t nd r in
  (* The update completes once its own timestamp sits in a good view
     (unlike the crash variant, self-delivery goes through reliable
     broadcast, so the first renewal can finish before the value is
     anchored locally). *)
  let rec until_visible r' =
    let view = renew t nd r' in
    if View.mem ts view then view
    else until_visible (max nd.max_tag (Timestamp.tag ts))
  in
  until_visible (max (r + 1) nd.max_tag)

let update t ~node v =
  let (_ : View.t) = update_with_view t ~node v in
  ()

let scan_view t ~node =
  let nd = t.nodes.(node) in
  begin_op nd;
  Fun.protect ~finally:(fun () -> nd.busy <- false) @@ fun () ->
  span t nd ~cat:"op" "SCAN" @@ fun () ->
  observing_rounds t.rounds_per_scan nd @@ fun () ->
  let r = read_tag t nd in
  renew t nd r

let scan t ~node =
  let view = scan_view t ~node in
  let nd = t.nodes.(node) in
  View.extract view ~n:t.n ~value_of:(K.value_of nd.kernel)

let lattice_attempts t = t.lattice_attempts
let net t = t.net
let value_of t ~node ts = K.value_of t.nodes.(node).kernel ts

let instance t =
  Aso_core.Wiring.instance ~name:"byz-eq-aso" ~f:t.f
    ~update:(fun node v -> update t ~node v)
    ~scan:(fun node -> scan t ~node)
    ~net:t.net
    ~value_match:(fun ~writer -> function
      | Msg.Rbc (Rbc.Send { payload = Value { ts; _ }; _ })
      | Msg.Rbc (Rbc.Send { payload = Fwd { ts }; _ }) ->
          Option.fold ~none:true ~some:(Int.equal (Timestamp.writer ts)) writer
      | _ -> false)
    ()
