type 'm packet =
  | Data of { epoch : int; seq : int; payload : 'm }
  | Ack of { epoch : int; upto : int }

type 'm t = {
  engine : Engine.t;
  n : int;
  link : 'm packet Link.t;
  handlers : (src:int -> 'm -> unit) array;
  dead : bool array;
  (* Bumped by [restart]. A channel's epoch is the sum of its two ends'
     incarnations: incarnations only grow, so the sum changes exactly
     when either end has been restarted since the packet left. *)
  incarnation : int array;
  tx : 'm Chan.tx array array; (* tx.(src).(dst) *)
  rx : 'm Chan.rx array array; (* rx.(dst).(src) *)
  (* Bumping a channel's generation cancels its outstanding timer: the
     scheduled closure compares and becomes a no-op. *)
  timer_gen : int array array;
  delivered : Obs.Metrics.counter;
  data_sent : Obs.Metrics.counter;
  retransmits : Obs.Metrics.counter;
  acks_sent : Obs.Metrics.counter;
}

let epoch t ~src ~dst = t.incarnation.(src) + t.incarnation.(dst)

(* Turn channel (src, dst)'s deadline into an engine timer. The delay is
   the machine's current RTO — the deadline it just set is now + RTO, so
   the event fires exactly at it. On expiry, resend whatever [tx_due]
   hands back and re-arm. *)
let rec arm_timer t ~src ~dst =
  let gen = t.timer_gen.(src).(dst) in
  (* Labeled with the sender: the expiry touches only [src]'s tx state
     (and re-sends on the link, which schedules future deliveries). *)
  Engine.schedule ~label:(Label.Timer src) t.engine
    ~delay:(Chan.tx_rto t.tx.(src).(dst))
    (fun () ->
      if t.timer_gen.(src).(dst) = gen && not t.dead.(src) && not t.dead.(dst)
      then
        match Chan.tx_due t.tx.(src).(dst) ~now:(Engine.now t.engine) with
        | [] -> ()
        | frames ->
            let obs = Engine.trace t.engine in
            List.iter
              (fun (seq, payload) ->
                Obs.Metrics.incr t.retransmits;
                if Obs.Trace.enabled obs then
                  Obs.Trace.instant obs ~ts:(Engine.now t.engine) ~pid:src
                    ~cat:"transport"
                    ~args:
                      [ ("dst", Obs.Trace.Int dst); ("seq", Obs.Trace.Int seq) ]
                    "retransmit";
                Link.send t.link ~src ~dst
                  (Data { epoch = epoch t ~src ~dst; seq; payload }))
              frames;
            arm_timer t ~src ~dst)

let handle_data t ~me ~src ~seq payload =
  let rx = t.rx.(me).(src) in
  (* A handler may crash its own node mid-batch; the rest of the batch
     then dies with it. *)
  List.iter
    (fun m ->
      if not t.dead.(me) then begin
        Obs.Metrics.incr t.delivered;
        t.handlers.(me) ~src m
      end)
    (Chan.rx_data rx ~seq payload);
  (* [ack_every = 1]: every data frame, duplicates included, owes an
     ack, and it goes out at once. *)
  if Chan.rx_ack_due rx && not t.dead.(src) then begin
    Obs.Metrics.incr t.acks_sent;
    Link.send t.link ~src:me ~dst:src
      (Ack { epoch = epoch t ~src:me ~dst:src; upto = Chan.rx_ack rx })
  end

let handle_ack t ~me ~src ~upto =
  if Chan.tx_ack t.tx.(me).(src) ~now:(Engine.now t.engine) ~upto then begin
    t.timer_gen.(me).(src) <- t.timer_gen.(me).(src) + 1;
    if Chan.tx_unacked t.tx.(me).(src) > 0 then arm_timer t ~src:me ~dst:src
  end

let create ?faults ?metrics engine ~n ~delay =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let link = Link.create ?faults ~metrics engine ~n ~delay in
  let d = Link.delay_bound link in
  let tx () = Chan.tx ~rto0:(2.5 *. d) ~rto_max:(16. *. d) () in
  let t =
    {
      engine;
      n;
      link;
      handlers = Array.make n (fun ~src:_ _ -> ());
      dead = Array.make n false;
      incarnation = Array.make n 0;
      tx = Array.init n (fun _ -> Array.init n (fun _ -> tx ()));
      rx = Array.init n (fun _ -> Array.init n (fun _ -> Chan.rx ~ack_every:1 ()));
      timer_gen = Array.make_matrix n n 0;
      delivered = Obs.Metrics.counter metrics "transport.delivered";
      data_sent = Obs.Metrics.counter metrics "transport.data_sent";
      retransmits = Obs.Metrics.counter metrics "transport.retransmits";
      acks_sent = Obs.Metrics.counter metrics "transport.acks_sent";
    }
  in
  for i = 0 to n - 1 do
    (* A packet whose channel epoch moved on was sent to or by an
       incarnation that has since died: its numbering means nothing to
       the fresh channel state, so it is discarded. *)
    Link.set_handler link i (fun ~src packet ->
        if not t.dead.(i) then
          match packet with
          | Data { epoch = e; seq; payload } ->
              if e = epoch t ~src ~dst:i then
                handle_data t ~me:i ~src ~seq payload
          | Ack { epoch = e; upto } ->
              if e = epoch t ~src ~dst:i then handle_ack t ~me:i ~src ~upto)
  done;
  t

let link t = t.link
let set_handler t i h = t.handlers.(i) <- h

let send t ~src ~dst m =
  if src = dst then invalid_arg "Sim.Transport.send: use a local delivery";
  (* A dead destination never acks, so data to it would be retransmitted
     forever and the simulation could not go quiescent. The simulator
     plays oracle and drops such sends at the door — observationally
     identical, since the ideal network also discards them (at delivery
     time). Dead sources send nothing, as everywhere else. *)
  if not (t.dead.(src) || t.dead.(dst)) then begin
    let tx = t.tx.(src).(dst) in
    (* An idle channel has no timer running: [tx_send] sets its
       deadline, and the engine event goes with it. *)
    let idle = Chan.tx_unacked tx = 0 in
    let seq = Chan.tx_send tx ~now:(Engine.now t.engine) m in
    Obs.Metrics.incr t.data_sent;
    Link.send t.link ~src ~dst
      (Data { epoch = epoch t ~src ~dst; seq; payload = m });
    if idle then arm_timer t ~src ~dst
  end

(* The dead flag stops every timer touching [i] while it is down, and
   the generation bump keeps those timers dead after a restart. The
   fence is the rule [Dist.Net] runs on a new boot id: what is queued
   toward the dead incarnation is lost, and so is what it had queued. *)
let kill t i =
  if not t.dead.(i) then begin
    t.dead.(i) <- true;
    for j = 0 to t.n - 1 do
      Chan.tx_fence t.tx.(i).(j);
      Chan.tx_fence t.tx.(j).(i);
      t.timer_gen.(i).(j) <- t.timer_gen.(i).(j) + 1;
      t.timer_gen.(j).(i) <- t.timer_gen.(j).(i) + 1;
      Chan.rx_reset t.rx.(i).(j)
    done
  end

(* Every peer's receiver from [i] expects a channel numbered from 0,
   and the new epoch discards whatever the dead incarnation left on the
   wire. *)
let restart t i =
  if t.dead.(i) then begin
    t.dead.(i) <- false;
    t.incarnation.(i) <- t.incarnation.(i) + 1;
    for j = 0 to t.n - 1 do
      Chan.rx_reset t.rx.(j).(i)
    done
  end

let retransmits t = Obs.Metrics.count t.retransmits
let acks_sent t = Obs.Metrics.count t.acks_sent

let pp_state ppf t =
  Format.fprintf ppf
    "transport: data=%d retransmits=%d acks=%d delivered=%d@.  %a"
    (Obs.Metrics.count t.data_sent)
    (retransmits t) (acks_sent t)
    (Obs.Metrics.count t.delivered)
    Link.pp_state t.link;
  for i = 0 to t.n - 1 do
    let busy =
      Array.exists (fun tx -> Chan.tx_unacked tx > 0) t.tx.(i)
      || Array.exists (fun rx -> Chan.rx_buffered rx > 0) t.rx.(i)
    in
    if busy then begin
      Format.fprintf ppf "@.  node %d%s:" i
        (if t.dead.(i) then " (dead)" else "");
      for j = 0 to t.n - 1 do
        let tx = t.tx.(i).(j) in
        let rx = t.rx.(i).(j) in
        let unacked = Chan.tx_unacked tx in
        if unacked > 0 then
          Format.fprintf ppf " [->%d unacked=%d lo=%d rto=%.1f]" j unacked
            (Chan.tx_next_seq tx - unacked)
            (Chan.tx_rto tx);
        if Chan.rx_buffered rx > 0 then
          Format.fprintf ppf " [<-%d expected=%d buffered=%d]" j
            (Chan.rx_expected rx) (Chan.rx_buffered rx)
      done
    end
  done
