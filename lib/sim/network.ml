type substrate = Ideal | Lossy of Link.faults

(* Ambient substrate for [create]: algorithms build their own networks
   deep inside [make] functions with no substrate parameter, so the
   harness selects the stack dynamically around the construction. *)
let ambient = ref Ideal

let with_substrate s f =
  let saved = !ambient in
  ambient := s;
  Fun.protect ~finally:(fun () -> ambient := saved) f

type 'm backend =
  | Direct of {
      (* FIFO clamp: latest scheduled delivery time per (src, dst). *)
      last_delivery : float array array;
    }
  | Stack of 'm Transport.t

type 'm t = {
  engine : Engine.t;
  n : int;
  delay : Delay.t;
  backend : 'm backend;
  handlers : (src:int -> 'm -> unit) array;
  crashed : bool array;
  (* Armed crash-during-broadcast faults: the next broadcast whose
     message matches reaches only the allowed destinations, then the
     node dies. *)
  pending_bcast_crash : (('m -> bool) * int list) option array;
  crash_hooks : (int -> unit) Queue.t;
  restart_hooks : (int -> unit) Queue.t;
  metrics : Obs.Metrics.t;
  sent : Obs.Metrics.counter;
  delivered : Obs.Metrics.counter;
  dropped : Obs.Metrics.counter;
  broadcasts : Obs.Metrics.counter;
  obs : Obs.Trace.t;
  (* Vector-clock recorder captured from the engine at creation; when
     present every logical send/deliver is logged into it. *)
  causal : Obs.Vclock.recorder option;
  (* Flow ids in flight over the transport stack, one FIFO per (src,
     dst) channel. The transport delivers each channel's messages
     exactly once, in send order (a prefix under loss), so the head of
     the queue is always the flow of the message being delivered. The
     direct backend and the loopback path capture flows in the
     scheduled closure instead. *)
  flows : int Queue.t array array option;
  (* Payload-free message label for trace events; algorithms install
     their wire-protocol kind function ({!set_msg_label}). *)
  mutable msg_label : ('m -> string) option;
  mutable tracer : ('m event -> unit) option;
}

and 'm event =
  | Sent of { src : int; dst : int; at : float; msg : 'm }
  | Delivered of { src : int; dst : int; at : float; msg : 'm }
  | Dropped of { src : int; dst : int; at : float; msg : 'm }

let trace t event = match t.tracer with None -> () | Some f -> f event

let label t msg =
  match t.msg_label with None -> "msg" | Some f -> f msg

(* Logical message instants on the acting node's track; guarded so the
   disabled trace costs one branch and allocates nothing. *)
let obs_msg t ~name ~pid ~src ~dst msg =
  if Obs.Trace.enabled t.obs then
    Obs.Trace.instant t.obs ~ts:(Engine.now t.engine) ~pid ~cat:"net"
      ~args:
        [ ("kind", Obs.Trace.Str (label t msg)); ("src", Obs.Trace.Int src);
          ("dst", Obs.Trace.Int dst) ]
      name

(* Logical delivery point, shared by both backends: the destination's
   crash is checked at delivery time. [flow] is the {!Obs.Vclock} flow
   id recorded at send time, 0 when causal recording is off. *)
let deliver ~flow t ~src ~dst msg =
  let now = Engine.now t.engine in
  if not t.crashed.(dst) then begin
    Obs.Metrics.incr t.delivered;
    obs_msg t ~name:"recv" ~pid:dst ~src ~dst msg;
    (match t.causal with
    | Some r when flow > 0 ->
        Obs.Vclock.record_deliver r ~dst ~src ~flow ~at:now
          ~label:(label t msg) ();
        if Obs.Trace.enabled t.obs then
          Obs.Trace.flow_end t.obs ~ts:now ~pid:dst ~id:flow (label t msg)
    | _ -> ());
    trace t (Delivered { src; dst; at = now; msg });
    t.handlers.(dst) ~src msg
  end
  else begin
    Obs.Metrics.incr t.dropped;
    obs_msg t ~name:"drop" ~pid:dst ~src ~dst msg;
    (match t.causal with
    | Some r when flow > 0 ->
        Obs.Vclock.record_drop r ~dst ~src ~flow ~at:now ~label:(label t msg)
          ()
    | _ -> ());
    trace t (Dropped { src; dst; at = now; msg })
  end

(* Pop the in-flight flow id for the transport delivery about to
   happen on channel (src, dst); 0 when causal recording is off. *)
let pop_flow t ~src ~dst =
  match t.flows with
  | None -> 0
  | Some q -> if Queue.is_empty q.(src).(dst) then 0
              else Queue.pop q.(src).(dst)

let create ?substrate engine ~n ~delay =
  assert (n > 0);
  let substrate = Option.value substrate ~default:!ambient in
  let metrics = Obs.Metrics.create () in
  (* Adopt the engine's recorder only when the clock dimension matches:
     a sub-component network over a different node count would corrupt
     the per-node clocks. *)
  let causal =
    match Engine.causal engine with
    | Some r when Obs.Vclock.nodes r = n -> Some r
    | _ -> None
  in
  let backend =
    match substrate with
    | Ideal -> Direct { last_delivery = Array.make_matrix n n neg_infinity }
    | Lossy faults -> Stack (Transport.create ~faults ~metrics engine ~n ~delay)
  in
  let t =
    {
      engine;
      n;
      delay;
      backend;
      causal;
      flows =
        (match (causal, backend) with
        | Some _, Stack _ ->
            Some (Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ())))
        | _ -> None);
      handlers = Array.make n (fun ~src:_ _ -> ());
      crashed = Array.make n false;
      pending_bcast_crash = Array.make n None;
      crash_hooks = Queue.create ();
      restart_hooks = Queue.create ();
      metrics;
      sent = Obs.Metrics.counter metrics "net.sent";
      delivered = Obs.Metrics.counter metrics "net.delivered";
      dropped = Obs.Metrics.counter metrics "net.dropped";
      broadcasts = Obs.Metrics.counter metrics "net.broadcasts";
      obs = Engine.trace engine;
      msg_label = None;
      tracer = None;
    }
  in
  (match t.backend with
  | Direct _ -> ()
  | Stack tr ->
      for i = 0 to n - 1 do
        Transport.set_handler tr i (fun ~src msg ->
            deliver ~flow:(pop_flow t ~src ~dst:i) t ~src ~dst:i msg)
      done);
  t

let engine t = t.engine
let size t = t.n
let delay_bound t = Delay.bound t.delay

let substrate t =
  match t.backend with
  | Direct _ -> Ideal
  | Stack tr -> Lossy (Link.faults (Transport.link tr))

let transport t = match t.backend with Direct _ -> None | Stack tr -> Some tr
let set_handler t i h = t.handlers.(i) <- h
let is_crashed t i = t.crashed.(i)

let crashed_count t =
  Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.crashed

let live_nodes t =
  List.filter (fun i -> not t.crashed.(i)) (List.init t.n Fun.id)

let on_crash t f = Queue.push f t.crash_hooks

let crash t i =
  if not t.crashed.(i) then begin
    t.crashed.(i) <- true;
    (match t.causal with
    | Some r -> Obs.Vclock.record_local r ~node:i ~at:(Engine.now t.engine)
                  "crash"
    | None -> ());
    (match t.backend with Direct _ -> () | Stack tr -> Transport.kill tr i);
    Queue.iter (fun f -> f i) t.crash_hooks
  end

let on_restart t f = Queue.push f t.restart_hooks

(* Restart = the same node id comes back up with empty volatile state.
   On the lossy stack the transport starts a new incarnation, and the
   flow ids of messages the dead one sent or was sent will never be
   delivered, so they go too. *)
let restart t i =
  if t.crashed.(i) then begin
    (match t.backend with
    | Direct _ -> ()
    | Stack tr ->
        Transport.restart tr i;
        Option.iter
          (fun q ->
            for j = 0 to t.n - 1 do
              Queue.clear q.(i).(j);
              Queue.clear q.(j).(i)
            done)
          t.flows);
    t.crashed.(i) <- false;
    t.pending_bcast_crash.(i) <- None;
    (match t.causal with
    | Some r ->
        Obs.Vclock.record_local r ~node:i ~at:(Engine.now t.engine) "restart"
    | None -> ());
    Queue.iter (fun f -> f i) t.restart_hooks
  end

(* Ideal channels: delivery is scheduled at send time and happens
   regardless of the sender's later fate; only the destination's crash
   suppresses the handler (checked at delivery time). Over the lossy
   stack the transport provides the same FIFO/exactly-once contract
   between live nodes; a sender's crash additionally cancels its
   retransmissions, so an unacknowledged message may be lost — the
   honest reading of "reliable channels" over a real network. *)
let send t ~src ~dst msg =
  if not t.crashed.(src) then begin
    Obs.Metrics.incr t.sent;
    obs_msg t ~name:"send" ~pid:src ~src ~dst msg;
    let now = Engine.now t.engine in
    (* Log the send at logical-send time and open the Perfetto flow
       arrow. The flow id rides with the message — captured in the
       delivery closure (direct/loopback) or queued per channel
       (transport stack, which may retransmit the packet but delivers
       the message once). *)
    let flow =
      match t.causal with
      | None -> 0
      | Some r ->
          let flow =
            Obs.Vclock.record_send r ~src ~dst ~at:now ~label:(label t msg) ()
          in
          if Obs.Trace.enabled t.obs then
            Obs.Trace.flow_start t.obs ~ts:now ~pid:src ~id:flow (label t msg);
          flow
    in
    trace t (Sent { src; dst; at = now; msg });
    match t.backend with
    | Direct { last_delivery } ->
        let d = Delay.sample t.delay ~src ~dst ~now in
        let at = Float.max (now +. d) last_delivery.(src).(dst) in
        last_delivery.(src).(dst) <- at;
        Engine.schedule ~label:(Label.Deliver dst) t.engine ~delay:(at -. now)
          (fun () -> deliver ~flow t ~src ~dst msg)
    | Stack tr ->
        if src = dst then
          (* Loopback needs no reliability protocol; deliver at the
             current time via the event queue, as the ideal network
             does, to preserve handler atomicity. *)
          Engine.schedule ~label:(Label.Deliver dst) t.engine ~delay:0.
            (fun () -> deliver ~flow t ~src ~dst msg)
        else begin
          (match t.flows with
          | Some q -> Queue.push flow q.(src).(dst)
          | None -> ());
          Transport.send tr ~src ~dst msg
        end
  end

let broadcast t ~src msg =
  if not t.crashed.(src) then begin
    Obs.Metrics.incr t.broadcasts;
    match t.pending_bcast_crash.(src) with
    | Some (match_, allow) when match_ msg ->
        t.pending_bcast_crash.(src) <- None;
        List.iter
          (fun dst -> if dst >= 0 && dst < t.n then send t ~src ~dst msg)
          allow;
        crash t src
    | Some _ | None ->
        for dst = 0 to t.n - 1 do
          send t ~src ~dst msg
        done
  end

let crash_during_next_broadcast_matching t i ~match_ ~deliver_to =
  t.pending_bcast_crash.(i) <- Some (match_, deliver_to)

let crash_during_next_broadcast t i ~deliver_to =
  crash_during_next_broadcast_matching t i ~match_:(fun _ -> true) ~deliver_to

let messages_sent t = Obs.Metrics.count t.sent
let messages_delivered t = Obs.Metrics.count t.delivered
let metrics t = t.metrics
let set_tracer t f = t.tracer <- Some f
let set_msg_label t f = t.msg_label <- Some f

(* ---- link-layer chaos controls -------------------------------------- *)

let no_link_layer op =
  invalid_arg
    (Printf.sprintf
       "Sim.Network.%s: the ideal network has no link layer (create the \
        network with the Lossy substrate)"
       op)

let set_link_faults t faults =
  match t.backend with
  | Direct _ -> no_link_layer "set_link_faults"
  | Stack tr -> Link.set_faults (Transport.link tr) faults

let partition t groups =
  match t.backend with
  | Direct _ -> no_link_layer "partition"
  | Stack tr -> Link.partition (Transport.link tr) groups

let heal t =
  match t.backend with
  | Direct _ -> no_link_layer "heal"
  | Stack tr -> Link.heal (Transport.link tr)

(* ---- accounting ------------------------------------------------------ *)

type stats = {
  sent : int;
  delivered : int;
  wire_sent : int;
  wire_delivered : int;
  wire_lost : int;
  wire_cut : int;
  retransmits : int;
  acks : int;
  duplicated : int;
  reordered : int;
}

let stats t =
  let sent = messages_sent t and delivered = messages_delivered t in
  match t.backend with
  | Direct _ ->
      {
        sent;
        delivered;
        wire_sent = sent;
        wire_delivered = delivered;
        wire_lost = 0;
        wire_cut = 0;
        retransmits = 0;
        acks = 0;
        duplicated = 0;
        reordered = 0;
      }
  | Stack tr ->
      let link = Transport.link tr in
      {
        sent;
        delivered;
        wire_sent = Link.packets_sent link;
        wire_delivered = Link.packets_delivered link;
        wire_lost = Link.packets_lost link;
        wire_cut = Link.packets_cut link;
        retransmits = Transport.retransmits tr;
        acks = Transport.acks_sent tr;
        duplicated = Link.packets_duplicated link;
        reordered = Link.packets_reordered link;
      }

let pp_event_route ppf = function
  | Sent { src; dst; at; _ } ->
      Format.fprintf ppf "t=%-8.2f sent      %d -> %d" at src dst
  | Delivered { src; dst; at; _ } ->
      Format.fprintf ppf "t=%-8.2f delivered %d -> %d" at src dst
  | Dropped { src; dst; at; _ } ->
      Format.fprintf ppf "t=%-8.2f dropped   %d -> %d (dst crashed)" at src dst

let pp_state ppf t =
  Format.fprintf ppf "network: n=%d sent=%d delivered=%d crashed={%s}" t.n
    (messages_sent t) (messages_delivered t)
    (String.concat ","
       (List.filter_map
          (fun i -> if t.crashed.(i) then Some (string_of_int i) else None)
          (List.init t.n Fun.id)));
  match t.backend with
  | Direct _ -> Format.fprintf ppf "@.  substrate: ideal (reliable FIFO axiom)"
  | Stack tr -> Format.fprintf ppf "@.  %a" Transport.pp_state tr
