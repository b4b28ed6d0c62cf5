type msg = Wire.msg

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Per-peer outbound state, all under [pmu]. The dialer thread opens
   the connection; once live, [fd] is non-blocking and every write to
   it happens under [pmu], so frames never interleave. A write the
   socket did not take whole leaves its remainder in [partial]; the
   writer thread finishes it, then drains [outq], before anyone writes
   directly again. [tx_gen] bumps when the peer comes back as a new
   process (sequence numbers restarted), so stale acks and stale
   held-back frames from the previous numbering can be recognized and
   dropped. *)
type peer = {
  dst : int;
  pmu : Mutex.t;
  pcv : Condition.t;
  outq : Wire.frame Queue.t;
  ptx : msg Chan.tx;
  mutable tx_gen : int;
  mutable fd : Unix.file_descr option;
  mutable partial : (string * int) option;  (* bytes, offset written *)
  mutable peer_boot : int option;
}

(* Per-source inbound state, shared by however many connections that
   source opens over time (a restart can briefly leave two). [ifd] is
   the newest of them, where the timer's coalesced acks go; [acked] is
   the last cumulative ack written. *)
type inbound = {
  imu : Mutex.t;
  irx : msg Chan.rx;
  mutable iboot : int option;
  mutable ifd : Unix.file_descr option;
  mutable acked : int;
}

type verdict = Pass | Drop | Duplicate | Hold of float

(* The sender-side fault dice: one stream per node, shared by its
   writer threads. *)
type dice = { faults : Chan.faults; rng : Random.State.t; mu : Mutex.t }

(* How long [reorder] holds a frame back: later frames overtake it. *)
let reorder_window = 0.005

(* In-order data frames are acked once this many are unacked, or else
   on the next [tick] — 5x inside Chan's 0.1 s initial RTO. *)
let ack_every = 64
let tick = 0.02

type t = {
  me : int;
  n : int;
  boot : int;
  eps : Conn.endpoint array;
  node : msg Rt.Node.t;
  peers : peer option array;
  inbound : inbound array;
  dice : dice option;
  t0 : int64;
  metrics : Obs.Metrics.t;
  c_sent : Obs.Metrics.counter;
  c_delivered : Obs.Metrics.counter;
  c_broadcasts : Obs.Metrics.counter;
  c_data : Obs.Metrics.counter;
  c_retx : Obs.Metrics.counter;
  c_acks : Obs.Metrics.counter;
  c_reconnects : Obs.Metrics.counter;
  c_lost : Obs.Metrics.counter;
  c_duplicated : Obs.Metrics.counter;
  c_reordered : Obs.Metrics.counter;
  stopping : bool Atomic.t;
  mutable listener : Unix.file_descr option;
  mutable threads : Thread.t list;
  cmu : Mutex.t;  (* guards [conns] and [client_handler] *)
  mutable conns : Unix.file_descr list;
  mutable client_handler : Wire.frame -> reply:(Wire.frame -> unit) -> unit;
  dmu : Mutex.t;  (* guards [delayed] *)
  mutable delayed : (float * peer * int * Wire.frame) list;
}

let create ?(faults = Chan.no_faults) ?(seed = 1) ~me ~eps () =
  let n = Array.length eps in
  if me < 0 || me >= n then invalid_arg "Net.create: me out of range";
  (* A peer writing into our dead socket must not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let metrics = Obs.Metrics.create () in
  let dice =
    match Chan.validate faults with
    | Error e -> invalid_arg ("Dist.Net: " ^ e)
    | Ok f when f = Chan.no_faults -> None
    | Ok f ->
        let rng = Random.State.make [| seed; me |] in
        Some { faults = f; rng; mu = Mutex.create () }
  in
  {
    me;
    n;
    (* Incarnation id: must differ across restarts of the same node id.
       Monotonic nanoseconds xor pid, kept positive. *)
    boot = now_ns () lxor (Unix.getpid () lsl 24) land max_int;
    eps = Array.copy eps;
    node = Rt.Node.create me;
    peers =
      Array.init n (fun dst ->
          if dst = me then None
          else
            Some
              {
                dst;
                pmu = Mutex.create ();
                pcv = Condition.create ();
                outq = Queue.create ();
                ptx = Chan.tx ();
                tx_gen = 0;
                fd = None;
                partial = None;
                peer_boot = None;
              });
    inbound =
      Array.init n (fun _ ->
          {
            imu = Mutex.create ();
            irx = Chan.rx ();
            iboot = None;
            ifd = None;
            acked = 0;
          });
    dice;
    t0 = Monotonic_clock.now ();
    metrics;
    c_sent = Obs.Metrics.counter metrics "net.sent";
    c_delivered = Obs.Metrics.counter metrics "net.delivered";
    c_broadcasts = Obs.Metrics.counter metrics "net.broadcasts";
    c_data = Obs.Metrics.counter metrics "dist.data_sent";
    c_retx = Obs.Metrics.counter metrics "dist.retransmits";
    c_acks = Obs.Metrics.counter metrics "dist.acks_sent";
    c_reconnects = Obs.Metrics.counter metrics "dist.reconnects";
    c_lost = Obs.Metrics.counter metrics "link.wire_lost";
    c_duplicated = Obs.Metrics.counter metrics "link.duplicated";
    c_reordered = Obs.Metrics.counter metrics "link.reordered";
    stopping = Atomic.make false;
    listener = None;
    threads = [];
    cmu = Mutex.create ();
    conns = [];
    client_handler = (fun _ ~reply:_ -> ());
    dmu = Mutex.create ();
    delayed = [];
  }

let me t = t.me
let size t = t.n
let boot t = t.boot
let metrics t = t.metrics

let now t =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t.t0) *. 1e-9

let judge t =
  match t.dice with
  | None -> Pass
  | Some d ->
      Mutex.lock d.mu;
      let hit p = p > 0. && Random.State.float d.rng 1.0 < p in
      let v =
        if hit d.faults.drop then Drop
        else if hit d.faults.dup then Duplicate
        else if hit d.faults.reorder then
          Hold (Random.State.float d.rng reorder_window)
        else Pass
      in
      Mutex.unlock d.mu;
      v

let close_quietly fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let track_conn t fd =
  Mutex.lock t.cmu;
  t.conns <- fd :: t.conns;
  Mutex.unlock t.cmu

let untrack_conn t fd =
  Mutex.lock t.cmu;
  t.conns <- List.filter (fun fd' -> fd' != fd) t.conns;
  Mutex.unlock t.cmu

(* ------------------------------------------------------------------ *)
(* Outbound: dialer / writer / ack reader, one trio per peer.          *)

(* With [pmu] held. The frames this connection did not confirm stay
   unacked in the channel and go out again after the reconnect. *)
let conn_dead p fd =
  if p.fd = Some fd then begin
    p.fd <- None;
    Condition.broadcast p.pcv
  end

let mark_conn_dead p fd =
  Mutex.lock p.pmu;
  conn_dead p fd;
  Mutex.unlock p.pmu

(* With [pmu] held and nothing [partial]: write what the socket takes
   now and leave the rest to the writer thread. *)
let put p fd bytes off =
  match Conn.write_some fd bytes off with
  | `Done -> ()
  | `Blocked off ->
      p.partial <- Some (bytes, off);
      Condition.broadcast p.pcv
  | `Dead -> conn_dead p fd

(* Drains acks coming back on the outbound connection. [gen] pins the
   numbering this connection was speaking: after the peer reboots and
   the channel renumbers, a late ack from the old connection must not
   trim the renumbered queue. *)
let ack_reader_loop t p fd reader gen =
  let rec loop () =
    match Conn.read_frame reader with
    | Ok (Wire.Ack { upto }) ->
        Mutex.lock p.pmu;
        if p.tx_gen = gen then
          ignore (Chan.tx_ack p.ptx ~now:(now t) ~upto);
        Mutex.unlock p.pmu;
        loop ()
    | Ok _ | Error _ -> ()
  in
  loop ();
  mark_conn_dead p fd

let delay_frame t release p gen frame =
  Mutex.lock t.dmu;
  t.delayed <- (release, p, gen, frame) :: t.delayed;
  Mutex.unlock t.dmu

(* Release held-back frames into their peer's queue once their time
   comes. Polling at 5 ms is fine: holds are at most [reorder_window],
   far below the retransmission timeout. *)
let delayer_loop t =
  while not (Atomic.get t.stopping) do
    let now_ = now t in
    Mutex.lock t.dmu;
    let due, rest =
      List.partition (fun (release, _, _, _) -> release <= now_) t.delayed
    in
    t.delayed <- rest;
    Mutex.unlock t.dmu;
    List.iter
      (fun (_, p, gen, frame) ->
        Mutex.lock p.pmu;
        if p.tx_gen = gen then begin
          Queue.push frame p.outq;
          Condition.broadcast p.pcv
        end;
        Mutex.unlock p.pmu)
      due;
    Thread.delay 0.005
  done

(* With [pmu] held: the bytes to put on the wire for one queued Data
   frame, under the fault dice. Faults apply to Data frames only —
   handshakes and acks always go through, so faults exercise
   retransmission rather than jamming connection establishment. A
   dropped frame simply stays unacked. *)
let emit t p frame =
  match judge t with
  | Pass -> Some (Wire.encode frame)
  | Drop ->
      Obs.Metrics.incr t.c_lost;
      None
  | Duplicate ->
      Obs.Metrics.incr t.c_duplicated;
      let bytes = Wire.encode frame in
      Some (bytes ^ bytes)
  | Hold d ->
      Obs.Metrics.incr t.c_reordered;
      delay_frame t (now t +. d) p p.tx_gen frame;
      None

(* Finish a [partial] write, waiting for the socket outside the lock,
   then pop and put queued frames one at a time, until the connection
   dies or we stop. Only this thread writes while either is
   non-empty. *)
let writer_loop t p fd =
  let live () = p.fd = Some fd && not (Atomic.get t.stopping) in
  let rec loop () =
    Mutex.lock p.pmu;
    while live () && p.partial = None && Queue.is_empty p.outq do
      Condition.wait p.pcv p.pmu
    done;
    if not (live ()) then Mutex.unlock p.pmu
    else begin
      (match p.partial with
      | Some (bytes, off) ->
          Mutex.unlock p.pmu;
          Conn.wait_writable fd;
          Mutex.lock p.pmu;
          if p.fd = Some fd then begin
            p.partial <- None;
            put p fd bytes off
          end
      | None -> (
          match emit t p (Queue.pop p.outq) with
          | Some bytes -> put p fd bytes 0
          | None -> ()));
      Mutex.unlock p.pmu;
      loop ()
    end
  in
  loop ()

(* One established outbound connection: handshake, resync the channel,
   then write until it dies. Returns when the connection is gone. *)
let run_connection t p fd =
  if not (Conn.write_frame fd (Wire.Hello { src = t.me; boot = t.boot }))
  then close_quietly fd
  else
    let reader = Conn.reader fd in
    match Conn.read_frame reader with
    | Ok (Wire.Welcome { boot; rx_expected }) ->
        let gen =
          Mutex.lock p.pmu;
          let rebooted =
            match p.peer_boot with
            | None -> false
            | Some b -> b <> boot
          in
          if rebooted then p.tx_gen <- p.tx_gen + 1;
          if p.peer_boot <> None then Obs.Metrics.incr t.c_reconnects;
          p.peer_boot <- Some boot;
          (* Frames queued for the dead connection are all unacked, so
             tx_reconnect re-emits them with the right numbering; the
             stale queue entries would duplicate (or, after a renumber,
             corrupt) them. *)
          Queue.clear p.outq;
          p.partial <- None;
          let frames =
            Chan.tx_reconnect p.ptx ~now:(now t)
              ~peer_rebooted:rebooted ~rx_expected
          in
          List.iter
            (fun (seq, m) -> Queue.push (Wire.Data { seq; msg = m }) p.outq)
            frames;
          (* From here on the node thread writes this socket itself: it
             must never block on a peer that stopped reading. *)
          Conn.set_nonblocking reader;
          p.fd <- Some fd;
          let gen = p.tx_gen in
          Mutex.unlock p.pmu;
          gen
        in
        let ack_thread =
          Thread.create (fun () -> ack_reader_loop t p fd reader gen) ()
        in
        writer_loop t p fd;
        close_quietly fd;
        Thread.join ack_thread
    | Ok _ | Error _ -> close_quietly fd

let dialer_loop t p =
  let stop () = Atomic.get t.stopping in
  let rec loop () =
    if not (stop ()) then begin
      (match Conn.dial ~stop t.eps.(p.dst) with
      | None -> ()
      | Some fd -> run_connection t p fd);
      if not (stop ()) then begin
        Thread.delay 0.01;
        loop ()
      end
    end
  in
  loop ()

(* With [imu] held, which serializes every write of acks. The inbound
   socket is non-blocking, so neither the reader thread nor the timer
   ever waits on a peer that stops reading its acks: an ack the socket
   takes none of is skipped (acks are cumulative, and the next frame or
   tick tries again); one it takes only in part has torn the stream, so
   the connection is shut down and the peer reconnects. *)
let write_ack t ib fd upto =
  match Conn.write_some fd (Wire.encode (Wire.Ack { upto })) 0 with
  | `Done ->
      ib.acked <- upto;
      Obs.Metrics.incr t.c_acks;
      true
  | `Blocked 0 -> true
  | `Blocked _ | `Dead ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      if ib.ifd = Some fd then ib.ifd <- None;
      false

(* The [tick] timer. Outbound: re-queue whatever is due on a live
   connection (with the connection down there is no point — the
   reconnect handshake re-emits everything anyway). Inbound: ack every
   channel that advanced since its last ack. *)
let retransmit_loop t =
  while not (Atomic.get t.stopping) do
    Array.iter
      (function
        | None -> ()
        | Some p ->
            Mutex.lock p.pmu;
            if p.fd <> None then begin
              match Chan.tx_due p.ptx ~now:(now t) with
              | [] -> ()
              | frames ->
                  List.iter
                    (fun (seq, m) ->
                      Obs.Metrics.incr t.c_retx;
                      Queue.push (Wire.Data { seq; msg = m }) p.outq)
                    frames;
                  Condition.broadcast p.pcv
            end;
            Mutex.unlock p.pmu)
      t.peers;
    Array.iter
      (fun ib ->
        Mutex.lock ib.imu;
        (match ib.ifd with
        | Some fd when Chan.rx_expected ib.irx > ib.acked ->
            ignore (write_ack t ib fd (Chan.rx_expected ib.irx))
        | _ -> ());
        Mutex.unlock ib.imu)
      t.inbound;
    Thread.delay tick
  done

(* ------------------------------------------------------------------ *)
(* Inbound: accept loop + one reader thread per connection.            *)

(* A peer connection: reset the channel if this is a new incarnation of
   [src], then deliver Data in order. A frame that is not simply the
   next one — a duplicate, or one that opens or fills a gap — means the
   sender is retransmitting (the lost packet may have been our ack), so
   it is acked at once; in-order frames are acked every [ack_every]
   frames, or by the timer. Posting to the mailbox inside [imu] keeps
   delivery FIFO even if a reconnecting src briefly has two live
   connections racing here. *)
let peer_conn_loop t fd reader ~src ~src_boot =
  let ib = t.inbound.(src) in
  Mutex.lock ib.imu;
  if ib.iboot <> Some src_boot then begin
    Chan.rx_reset ib.irx;
    ib.iboot <- Some src_boot
  end;
  let expected = Chan.rx_expected ib.irx in
  (* Inside [imu], so the timer's acks cannot overtake the Welcome. *)
  let welcomed =
    Conn.write_frame fd (Wire.Welcome { boot = t.boot; rx_expected = expected })
  in
  if welcomed then begin
    Conn.set_nonblocking reader;
    ib.ifd <- Some fd;
    ib.acked <- expected
  end;
  Mutex.unlock ib.imu;
  let rec loop () =
    match Conn.read_frame reader with
    | Ok (Wire.Data { seq; msg }) ->
        Mutex.lock ib.imu;
        (* A newer incarnation of src took over the channel: this
           connection is an orphan — stop speaking for it. *)
        let live =
          ib.iboot = Some src_boot
          &&
          let next =
            seq = Chan.rx_expected ib.irx && Chan.rx_buffered ib.irx = 0
          in
          List.iter
            (fun m ->
              Obs.Metrics.incr t.c_delivered;
              ignore
                (Rt.Node.post t.node
                   (Rt.Node.Net { src; msg = m; stamp = [||] })))
            (Chan.rx_data ib.irx ~seq msg);
          let upto = Chan.rx_expected ib.irx in
          if next && upto - ib.acked < ack_every then true
          else write_ack t ib fd upto
        in
        Mutex.unlock ib.imu;
        if live then loop ()
    | Ok _ | Error _ -> ()
  in
  if welcomed then loop ();
  Mutex.lock ib.imu;
  if ib.ifd = Some fd then ib.ifd <- None;
  Mutex.unlock ib.imu

(* A client connection: Req frames in, Resp frames out. The handler
   typically defers to protocol context and calls [reply] later, from
   the node's run loop — hence the write lock. *)
let client_conn_loop t fd reader first =
  let wmu = Mutex.create () in
  let reply frame =
    Mutex.lock wmu;
    ignore (Conn.write_frame fd frame);
    Mutex.unlock wmu
  in
  let handler =
    Mutex.lock t.cmu;
    let h = t.client_handler in
    Mutex.unlock t.cmu;
    h
  in
  let rec loop frame =
    handler frame ~reply;
    match Conn.read_frame reader with
    | Ok (Wire.Req _ as next) -> loop next
    | Ok _ | Error _ -> ()
  in
  loop first

let conn_thread t fd =
  track_conn t fd;
  let reader = Conn.reader fd in
  (match Conn.read_frame reader with
  | Ok (Wire.Hello { src; boot })
    when src >= 0 && src < t.n && src <> t.me ->
      peer_conn_loop t fd reader ~src ~src_boot:boot
  | Ok (Wire.Req _ as first) -> client_conn_loop t fd reader first
  | Ok _ | Error _ -> ());
  close_quietly fd;
  untrack_conn t fd

let accept_loop t listener =
  let rec loop () =
    if not (Atomic.get t.stopping) then
      match Conn.accept t.eps.(t.me) listener with
      | fd ->
          ignore (Thread.create (fun () -> conn_thread t fd) ());
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ ->
          (* Listener closed (shutdown) or transient accept failure. *)
          if not (Atomic.get t.stopping) then begin
            Thread.delay 0.01;
            loop ()
          end
  in
  loop ()

(* ------------------------------------------------------------------ *)

let start t =
  let listener = Conn.listen t.eps.(t.me) in
  t.listener <- Some listener;
  let spawn f = t.threads <- Thread.create f () :: t.threads in
  spawn (fun () -> accept_loop t listener);
  spawn (fun () -> retransmit_loop t);
  if t.dice <> None then spawn (fun () -> delayer_loop t);
  Array.iter
    (function
      | None -> ()
      | Some p -> spawn (fun () -> dialer_loop t p))
    t.peers

let run t = Rt.Node.run t.node
let post_work t f = ignore (Rt.Node.post t.node (Rt.Node.Work f))
let request_stop t = ignore (Rt.Node.post t.node Rt.Node.Stop)

let set_client_handler t h =
  Mutex.lock t.cmu;
  t.client_handler <- h;
  Mutex.unlock t.cmu

let stop t =
  Atomic.set t.stopping true;
  request_stop t;
  (match t.listener with
  | Some fd ->
      close_quietly fd;
      t.listener <- None
  | None -> ());
  (match t.eps.(t.me) with
  | Conn.Unix_ep path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Conn.Tcp_ep _ -> ());
  Array.iter
    (function
      | None -> ()
      | Some p ->
          Mutex.lock p.pmu;
          (match p.fd with Some fd -> close_quietly fd | None -> ());
          p.fd <- None;
          Condition.broadcast p.pcv;
          Mutex.unlock p.pmu)
    t.peers;
  Mutex.lock t.cmu;
  let conns = t.conns in
  Mutex.unlock t.cmu;
  List.iter close_quietly conns;
  List.iter Thread.join t.threads;
  t.threads <- []

(* ------------------------------------------------------------------ *)
(* The engine surface.                                                 *)

let send t ~src ~dst m =
  if src = t.me && dst >= 0 && dst < t.n then begin
    Obs.Metrics.incr t.c_sent;
    if dst = t.me then begin
      if Rt.Node.post t.node (Rt.Node.Net { src; msg = m; stamp = [||] }) then
        Obs.Metrics.incr t.c_delivered
    end
    else
      match t.peers.(dst) with
      | None -> ()
      | Some p ->
          Mutex.lock p.pmu;
          let seq = Chan.tx_send p.ptx ~now:(now t) m in
          Obs.Metrics.incr t.c_data;
          let frame = Wire.Data { seq; msg = m } in
          (* The common case writes from this thread: no handoff. *)
          (match p.fd with
          | Some fd
            when t.dice = None && p.partial = None && Queue.is_empty p.outq ->
              put p fd (Wire.encode frame) 0
          | _ ->
              Queue.push frame p.outq;
              Condition.broadcast p.pcv);
          Mutex.unlock p.pmu
  end

let backend t =
  {
    Backend.n = t.n;
    backend_name = "dist";
    now = (fun () -> now t);
    send = (fun ~src ~dst m -> send t ~src ~dst m);
    broadcast =
      (fun ~src m ->
        if src = t.me then begin
          Obs.Metrics.incr t.c_broadcasts;
          for dst = 0 to t.n - 1 do
            send t ~src ~dst m
          done
        end);
    set_handler =
      (fun i h -> if i = t.me then Rt.Node.set_handler t.node h);
    set_msg_label = (fun _ -> ());
    new_condition =
      (fun ~node ->
        if node = t.me then
          {
            Backend.await = (fun pred -> Rt.Node.await t.node pred);
            signal = (fun () -> ());
          }
        else
          {
            Backend.await =
              (fun _ ->
                invalid_arg
                  "Dist.Net: only the local node's condition can be awaited");
            signal = (fun () -> ());
          });
    trace = Obs.Trace.noop;
    metrics = t.metrics;
  }
