type 'm t = {
  nodes : 'm Node.t array;
  metrics : Obs.Metrics.t;
  c_sent : Obs.Metrics.counter;
  c_delivered : Obs.Metrics.counter;
  c_dropped : Obs.Metrics.counter;
  c_broadcasts : Obs.Metrics.counter;
  t0 : int;  (* monotonic nanoseconds at creation *)
  telem : Telem.t option;
  causal : Obs.Vclock.recorder option;
  (* Link-level fault injection (tests only): [cut.(src * n + dst)]
     silently drops that directed link's messages, counted under
     [net.dropped]. Plain bool array — writes are rare test-side pokes
     and a momentarily stale read only shifts when the partition takes
     effect, never tears. *)
  cut : bool array;
}

let create ?(recorder = true) ?(causal = false) ~n () =
  if n <= 0 then invalid_arg "Rt.Net.create: n must be positive";
  let metrics = Obs.Metrics.create () in
  let t0 = Int64.to_int (Monotonic_clock.now ()) in
  let now_ns () = Int64.to_int (Monotonic_clock.now ()) - t0 in
  let now () = Float.of_int (now_ns ()) *. 1e-9 in
  let telem = if recorder then Some (Telem.create ~n ~now ()) else None in
  let nodes = Array.init n Node.create in
  Option.iter
    (fun tl ->
      Array.iteri (fun i nd -> Node.set_telem nd (Some (Telem.node tl i))) nodes)
    telem;
  (* Retention-bounded: rt stamps hundreds of thousands of events per
     second, and the slice forensics only need the recent causal
     window — an unbounded log is a major-heap leak that costs real
     throughput in GC on long runs. *)
  let causal =
    if causal then Some (Obs.Vclock.recorder ~cap:16_384 ~n ()) else None
  in
  (* Receive side of the causal wiring: the delivery observer runs on
     the receiving node's own domain just before the handler and logs
     the delivery under the piggy-backed flow id, in the receiver's
     shard (whose single writer that domain is). With the send, this
     is the message's only record: the flight-recorder arrows are drawn
     from the log at export ({!Telem.to_trace}). *)
  (match causal with
  | Some vr ->
      Array.iteri
        (fun dst nd ->
          Node.set_on_deliver nd (fun ~src flow ->
              Obs.Vclock.record_deliver_ns vr ~dst ~src ~flow ~ns:(now_ns ())))
        nodes
  | None -> ());
  {
    nodes;
    metrics;
    (* Same instrument names as the simulator's network, so bench and
       campaign aggregation treat both backends uniformly. One cell per
       sending node: [send] runs on [src]'s domain, so no two domains
       bump one cell. *)
    c_sent = Obs.Metrics.counter ~writers:n metrics "net.sent";
    c_delivered = Obs.Metrics.counter ~writers:n metrics "net.delivered";
    c_dropped = Obs.Metrics.counter ~writers:n metrics "net.dropped";
    c_broadcasts = Obs.Metrics.counter ~writers:n metrics "net.broadcasts";
    t0;
    telem;
    causal;
    cut = Array.make (n * n) false;
  }

let size t = Array.length t.nodes
let metrics t = t.metrics
let node t i = t.nodes.(i)
let telem t = t.telem
let recorder t = Option.map Telem.recorder t.telem
let causal t = t.causal

(* Nanoseconds since creation: an int, so the per-message causal
   records take the time unboxed. *)
let now_ns t = Int64.to_int (Monotonic_clock.now ()) - t.t0
let now t = Float.of_int (now_ns t) *. 1e-9

let cut_link t ~src ~dst = t.cut.((src * size t) + dst) <- true
let heal_link t ~src ~dst = t.cut.((src * size t) + dst) <- false

(* Runs on [src]'s domain: its causal shard and counter cells have no
   other writer. A post refused by a crashed receiver leaves the [Send]
   unmatched rather than logging a [Drop] into the receiver's shard
   from here. *)
let send t ~src ~dst msg =
  if not (Node.is_crashed t.nodes.(src)) then begin
    if t.cut.((src * size t) + dst) then Obs.Metrics.incr_at t.c_dropped src
    else begin
      Obs.Metrics.incr_at t.c_sent src;
      let flow =
        match t.causal with
        | None -> 0
        | Some vr -> Obs.Vclock.record_send_ns vr ~src ~dst ~ns:(now_ns t)
      in
      if Node.post t.nodes.(dst) (Node.Net { src; msg; flow }) then
        Obs.Metrics.incr_at t.c_delivered src
      else Obs.Metrics.incr_at t.c_dropped src
    end
  end

let broadcast t ~src msg =
  if not (Node.is_crashed t.nodes.(src)) then begin
    Obs.Metrics.incr_at t.c_broadcasts src;
    for dst = 0 to size t - 1 do
      send t ~src ~dst msg
    done
  end

let backend t =
  {
    Backend.n = size t;
    backend_name = "rt";
    now = (fun () -> now t);
    send = (fun ~src ~dst msg -> send t ~src ~dst msg);
    broadcast = (fun ~src msg -> broadcast t ~src msg);
    set_handler = (fun i h -> Node.set_handler t.nodes.(i) h);
    (* Message labels feed tracing and per-kind wire accounting, neither
       of which exists on rt (trace is noop). *)
    set_msg_label = (fun _ -> ());
    new_condition =
      (fun ~node ->
        let nd = t.nodes.(node) in
        {
          Backend.await = (fun pred -> Node.await nd pred);
          (* Handlers run on the node's own domain, interleaved with the
             awaiting operation at its pump points — after each handler
             the await loop re-checks its predicate anyway, so signal
             has nothing to do. *)
          signal = (fun () -> ());
        });
    trace = Obs.Trace.noop;
    metrics = t.metrics;
  }

let start t = Array.iter Node.start t.nodes

let stop t =
  Array.iter (fun nd -> ignore (Node.post nd Node.Stop : bool)) t.nodes;
  Array.iter Node.join t.nodes

let crash t i = Node.crash t.nodes.(i)
let restart t i = Node.restart t.nodes.(i)
let is_crashed t i = Node.is_crashed t.nodes.(i)
let post_work t i f = Node.post t.nodes.(i) (Node.Work f)
