type faults = Chan.faults

let no_faults = Chan.no_faults

let check_faults f =
  match Chan.validate f with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Sim.Link: " ^ e)

type 'p event =
  | Wire_sent of { src : int; dst : int; at : float; packet : 'p }
  | Wire_delivered of { src : int; dst : int; at : float; packet : 'p }
  | Wire_lost of { src : int; dst : int; at : float; packet : 'p }
  | Wire_cut of { src : int; dst : int; at : float; packet : 'p }

type 'p t = {
  engine : Engine.t;
  n : int;
  delay : Delay.t;
  rng : Rng.t;
  mutable faults : faults;
  (* [None] = fully connected; [Some g] = node [i] reaches [j] iff
     [g.(i) = g.(j)]. *)
  mutable groups : int array option;
  handlers : (src:int -> 'p -> unit) array;
  (* FIFO clamp as in the ideal network; reordered packets bypass it. *)
  last_delivery : float array array;
  metrics : Obs.Metrics.t;
  sent : Obs.Metrics.counter;
  delivered : Obs.Metrics.counter;
  lost : Obs.Metrics.counter;
  (* dropped by the loss model *)
  cut : Obs.Metrics.counter;
  (* dropped because they crossed a partition *)
  duplicated : Obs.Metrics.counter;
  reordered : Obs.Metrics.counter;
  obs : Obs.Trace.t;
  (* Per-physical-transmission flow ids: each packet that makes it onto
     the wire gets its own Perfetto flow arrow (cat "wire"), so a
     retransmitted message shows one logical arrow plus one wire arrow
     per attempt. Only drawn when tracing is enabled. *)
  mutable next_wire : int;
  mutable tracer : ('p event -> unit) option;
}

let create ?(faults = no_faults) ?metrics engine ~n ~delay =
  assert (n > 0);
  check_faults faults;
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  {
    engine;
    n;
    delay;
    rng = Rng.split (Engine.rng engine);
    faults;
    groups = None;
    handlers = Array.make n (fun ~src:_ _ -> ());
    last_delivery = Array.make_matrix n n neg_infinity;
    metrics;
    sent = Obs.Metrics.counter metrics "link.wire_sent";
    delivered = Obs.Metrics.counter metrics "link.wire_delivered";
    lost = Obs.Metrics.counter metrics "link.wire_lost";
    cut = Obs.Metrics.counter metrics "link.wire_cut";
    duplicated = Obs.Metrics.counter metrics "link.duplicated";
    reordered = Obs.Metrics.counter metrics "link.reordered";
    obs = Engine.trace engine;
    next_wire = 1;
    tracer = None;
  }

let engine t = t.engine
let size t = t.n
let delay_bound t = Delay.bound t.delay
let set_handler t i h = t.handlers.(i) <- h

let set_faults t faults =
  check_faults faults;
  t.faults <- faults

let faults t = t.faults

let partition t groups =
  let g = Array.make t.n (-1) in
  List.iteri
    (fun gi members ->
      List.iter
        (fun node ->
          if node < 0 || node >= t.n then
            invalid_arg "Sim.Link.partition: node out of range";
          g.(node) <- gi)
        members)
    groups;
  t.groups <- Some g

let heal t = t.groups <- None
let partitioned t = t.groups <> None

let reachable t ~src ~dst =
  src = dst
  || match t.groups with None -> true | Some g -> g.(src) = g.(dst)

let trace t ev = match t.tracer with None -> () | Some f -> f ev
let set_tracer t f = t.tracer <- Some f
let metrics t = t.metrics

(* Wire-level observability: a span-free instant per packet fate, on
   the track of the node that acted (sender for sent/lost/cut, receiver
   for delivered). Guarded so the disabled trace allocates nothing. *)
let obs_wire t ~name ~pid ~src ~dst ~at =
  if Obs.Trace.enabled t.obs then
    Obs.Trace.instant t.obs ~ts:at ~pid ~cat:"wire"
      ~args:[ ("src", Obs.Trace.Int src); ("dst", Obs.Trace.Int dst) ]
      name

(* Draw only when the probability is positive, so a zero-fault link makes
   exactly the RNG draws of the ideal network (none). Under a
   controllable scheduler every positive-probability fault becomes an
   explicit binary choice point instead of an RNG draw, so the model
   checker decides each packet's fate (and records it for replay). *)
let hit t ~op ~src ~dst p =
  p > 0.
  &&
  match Engine.chooser t.engine with
  | Some _ -> Engine.choose t.engine (Label.Link_fault { op; src; dst }) = 1
  | None -> Rng.float t.rng 1.0 < p

let deliver_at ?wire t ~src ~dst ~at packet =
  Engine.schedule ~label:(Label.Deliver dst) t.engine
    ~delay:(at -. Engine.now t.engine)
    (fun () ->
      Obs.Metrics.incr t.delivered;
      let at = Engine.now t.engine in
      obs_wire t ~name:"wire_delivered" ~pid:dst ~src ~dst ~at;
      (match wire with
      | Some id when Obs.Trace.enabled t.obs ->
          Obs.Trace.flow_end t.obs ~ts:at ~pid:dst ~id ~cat:"wire" "pkt"
      | _ -> ());
      trace t (Wire_delivered { src; dst; at; packet });
      t.handlers.(dst) ~src packet)

let transmit t ~src ~dst packet =
  let now = Engine.now t.engine in
  Obs.Metrics.incr t.sent;
  trace t (Wire_sent { src; dst; at = now; packet });
  if not (reachable t ~src ~dst) then begin
    Obs.Metrics.incr t.cut;
    obs_wire t ~name:"wire_cut" ~pid:src ~src ~dst ~at:now;
    trace t (Wire_cut { src; dst; at = now; packet })
  end
  else if hit t ~op:Label.Drop ~src ~dst t.faults.drop then begin
    Obs.Metrics.incr t.lost;
    obs_wire t ~name:"wire_lost" ~pid:src ~src ~dst ~at:now;
    trace t (Wire_lost { src; dst; at = now; packet })
  end
  else begin
    let d = Delay.sample t.delay ~src ~dst ~now in
    let at =
      if src <> dst && hit t ~op:Label.Reorder ~src ~dst t.faults.reorder
      then begin
        (* Fresh delay plus jitter, not clamped to the channel's previous
           delivery: a later packet may overtake earlier ones. *)
        Obs.Metrics.incr t.reordered;
        now +. d +. Rng.float t.rng (Delay.bound t.delay)
      end
      else begin
        let at = Float.max (now +. d) t.last_delivery.(src).(dst) in
        t.last_delivery.(src).(dst) <- at;
        at
      end
    in
    let wire =
      if Obs.Trace.enabled t.obs then begin
        let id = t.next_wire in
        t.next_wire <- id + 1;
        Obs.Trace.flow_start t.obs ~ts:now ~pid:src ~id ~cat:"wire" "pkt";
        Some id
      end
      else None
    in
    deliver_at ?wire t ~src ~dst ~at packet
  end

let send t ~src ~dst packet =
  transmit t ~src ~dst packet;
  if src <> dst && hit t ~op:Label.Dup ~src ~dst t.faults.dup then begin
    Obs.Metrics.incr t.duplicated;
    transmit t ~src ~dst packet
  end

let packets_sent t = Obs.Metrics.count t.sent
let packets_delivered t = Obs.Metrics.count t.delivered
let packets_lost t = Obs.Metrics.count t.lost
let packets_cut t = Obs.Metrics.count t.cut
let packets_duplicated t = Obs.Metrics.count t.duplicated
let packets_reordered t = Obs.Metrics.count t.reordered

let pp_state ppf t =
  Format.fprintf ppf
    "link: faults={drop=%.2f dup=%.2f reorder=%.2f} partitioned=%b \
     sent=%d delivered=%d lost=%d cut=%d dup'd=%d reordered=%d"
    t.faults.drop t.faults.dup t.faults.reorder (partitioned t)
    (packets_sent t) (packets_delivered t) (packets_lost t) (packets_cut t)
    (packets_duplicated t) (packets_reordered t)
