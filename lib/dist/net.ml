type msg = Wire.msg

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Acks are owed by [Chan]'s policy, with 64 for [ack_every] and [tick]
   5x inside Chan's 0.1 s initial RTO. Redials back off from
   [backoff0], doubling, until a handshake. *)
let tick = 0.02
let backoff0, backoff_max = (0.01, 0.5)
let reorder_window = 0.005

(* Both channels between this node and node [id], the connection each
   rides ([out] dialed by us, [isock] by [id]) and [id]'s incarnation,
   from the first [Hello] or [Welcome] that named it. [out] is redialed
   only once closed, so what arrives on it is of the current numbering. *)
type link = {
  id : int;
  ptx : msg Chan.tx;
  irx : msg Chan.rx;
  mutable peer_boot : int option;
  mutable out : sock option;
  mutable dial_at : float;
  mutable backoff : float;
  mutable isock : sock option;
}

(* A non-blocking socket: its decoder and out-buffer [obuf.(olo..ohi)]. *)
and sock = {
  fd : Unix.file_descr;
  rd : Conn.reader;
  mutable obuf : Bytes.t;
  mutable olo : int;
  mutable ohi : int;
  mutable role : role;
  mutable closed : bool;
}

and role =
  | Greeting of link  (* dialed, Hello queued; awaiting Welcome *)
  | Out of link  (* live *)
  | Accepted  (* awaiting Hello (a peer) or Req (a client) *)
  | In of link
  | Client of { mutable inflight : int }

type verdict = Pass | Drop | Duplicate | Hold of float

(* Resolved once at [create]: a frame bumps three or four of these, and
   a registry lookup by name per bump would hash the name each time. *)
type counters = {
  sent : Obs.Metrics.counter;
  delivered : Obs.Metrics.counter;
  broadcasts : Obs.Metrics.counter;
  data_sent : Obs.Metrics.counter;
  retransmits : Obs.Metrics.counter;
  acks_sent : Obs.Metrics.counter;
  reconnects : Obs.Metrics.counter;
  wire_lost : Obs.Metrics.counter;
  duplicated : Obs.Metrics.counter;
  reordered : Obs.Metrics.counter;
  socket_writes : Obs.Metrics.counter;
}

type t = {
  me : int;
  boot : int;
  eps : Conn.endpoint array;
  links : link array;  (* [links.(me)] is unused *)
  dice : (Chan.faults * Random.State.t) option;
  metrics : Obs.Metrics.t;
  c : counters;
  mutable handler : src:int -> msg -> unit;
  mutable client_handler : Wire.frame -> reply:(Wire.frame -> unit) -> unit;
  loopback : msg Queue.t;  (* sends to self, delivered by [pump] *)
  posted : (unit -> unit) list Atomic.t;  (* from any thread, newest first *)
  mutable loop_thread : int;  (* [Thread.id] of [run]'s caller; -1 before *)
  stopping : bool Atomic.t;
  woken : bool Atomic.t;  (* a byte is in the wake pipe *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable listener : Unix.file_descr option;
  mutable socks : sock list;
  mutable holds : (float * sock * Wire.frame) list;  (* reordered frames *)
  mutable next_tick : float;
}

(* Registration order is exposition order. *)
let counters metrics =
  let c = Obs.Metrics.counter metrics in
  let sent = c "net.sent" in
  let delivered = c "net.delivered" in
  let broadcasts = c "net.broadcasts" in
  let data_sent = c "dist.data_sent" in
  let retransmits = c "dist.retransmits" in
  let acks_sent = c "dist.acks_sent" in
  let reconnects = c "dist.reconnects" in
  let wire_lost = c "link.wire_lost" in
  let duplicated = c "link.duplicated" in
  let reordered = c "link.reordered" in
  let socket_writes = c "dist.socket_writes" in
  { sent; delivered; broadcasts; data_sent; retransmits; acks_sent;
    reconnects; wire_lost; duplicated; reordered; socket_writes }

let create ?(faults = Chan.no_faults) ?(seed = 1) ~me ~eps () =
  let n = Array.length eps in
  if me < 0 || me >= n then invalid_arg "Net.create: me out of range";
  (* A peer writing into our dead socket must not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dice =
    match Chan.validate faults with
    | Error e -> invalid_arg ("Dist.Net: " ^ e)
    | Ok f when f = Chan.no_faults -> None
    | Ok f -> Some (f, Random.State.make [| seed; me |])
  in
  let metrics = Obs.Metrics.create () in
  let c = counters metrics in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let link id =
    { id; ptx = Chan.tx (); irx = Chan.rx ~ack_every:64 (); peer_boot = None;
      out = None; dial_at = 0.; backoff = backoff0; isock = None }
  in
  (* The incarnation id must differ across restarts of one node id:
     monotonic nanoseconds xor pid, kept positive. *)
  let boot = now_ns () lxor (Unix.getpid () lsl 24) land max_int in
  { me; boot; eps = Array.copy eps; links = Array.init n link; dice; metrics; c;
    handler = (fun ~src:_ _ -> ()); client_handler = (fun _ ~reply:_ -> ());
    loopback = Queue.create (); posted = Atomic.make []; loop_thread = -1;
    stopping = Atomic.make false; woken = Atomic.make false; wake_r; wake_w;
    listener = None; socks = []; holds = []; next_tick = 0. }

let metrics t = t.metrics
let set_client_handler t h = t.client_handler <- h

let judge t =
  match t.dice with
  | None -> Pass
  | Some (f, rng) ->
      let hit p = p > 0. && Random.State.float rng 1.0 < p in
      if hit f.drop then Drop
      else if hit f.dup then Duplicate
      else if hit f.reorder then Hold (Random.State.float rng reorder_window)
      else Pass

let close_quietly fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let is s = Option.fold ~none:false ~some:(( == ) s)

let redial_later l =
  l.out <- None;
  l.dial_at <- now () +. l.backoff;
  l.backoff <- Float.min (2. *. l.backoff) backoff_max

(* The only place a socket dies. A dead outbound connection's unacked
   frames stay in its channel and go out again after the redial. *)
let close_sock s =
  if not s.closed then begin
    s.closed <- true;
    close_quietly s.fd;
    match s.role with
    | (Greeting l | Out l) when is s l.out -> redial_later l
    | In l when is s l.isock -> l.isock <- None
    | _ -> ()
  end

let add_sock t fd role =
  let s =
    { fd; rd = Conn.reader fd; obuf = Bytes.empty; olo = 0; ohi = 0; role;
      closed = false }
  in
  t.socks <- s :: t.socks;
  s

(* ---- The one write path: frames are encoded into the socket's
   out-buffer, and [pump] writes every socket once per turn, just
   before [select]; what the socket does not take waits until it is
   writable. ----------------------------------------------------------- *)

let idle s = s.olo = s.ohi

(* Room for [len] bytes behind the tail: the unwritten bytes move to
   the front, into a new buffer only when they would not fit. *)
let reserve s len =
  if s.ohi + len > Bytes.length s.obuf then begin
    let live = s.ohi - s.olo in
    let b =
      if live + len <= Bytes.length s.obuf then s.obuf
      else Bytes.create (max 4096 (2 * (live + len)))
    in
    Bytes.blit s.obuf s.olo b 0 live;
    s.obuf <- b;
    s.olo <- 0;
    s.ohi <- live
  end

(* A frame is encoded at the tail; one that does not fit is encoded
   again once [reserve] has made more than twice the room. *)
let rec put s frame =
  match Wire.encode_into s.obuf ~pos:s.ohi frame with
  | stop -> s.ohi <- stop
  | exception Invalid_argument _ ->
      reserve s ((2 * (Bytes.length s.obuf - s.ohi)) + 64);
      put s frame

(* One [single_write] takes at most 64 KiB, so a larger buffer, such
   as a [Recover_push] carrying a long history, takes as many calls as
   the socket accepts. A small one takes one. *)
let rec flush t s =
  if not (s.closed || idle s) then begin
    Obs.Metrics.incr t.c.socket_writes;
    match Unix.single_write s.fd s.obuf s.olo (s.ohi - s.olo) with
    | k ->
        s.olo <- s.olo + k;
        if k > 0 then flush t s
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error _ -> close_sock s
  end

(* A [Data] frame toward [l], under the fault dice. A dropped frame, or
   one sent while the connection is down, stays unacked in [Chan]. *)
let put_data t l seq m =
  match l.out with
  | Some ({ role = Out _; _ } as s) -> (
      let frame = Wire.Data { seq; msg = m } in
      match judge t with
      | Pass -> put s frame
      | Drop -> Obs.Metrics.incr t.c.wire_lost
      | Duplicate ->
          Obs.Metrics.incr t.c.duplicated;
          put s frame;
          put s frame
      | Hold d ->
          Obs.Metrics.incr t.c.reordered;
          t.holds <- (now () +. d, s, frame) :: t.holds)
  | _ -> ()

(* The ack [Chan] says the channel owes goes out once its connection
   has written all else: a peer that stops reading acks costs nothing. *)
let send_ack t l =
  match l.isock with
  | Some s when Chan.rx_ack_due l.irx && idle s ->
      Obs.Metrics.incr t.c.acks_sent;
      put s (Wire.Ack { upto = Chan.rx_ack l.irx })
  | _ -> ()

(* [boot] names [l]'s peer, in a [Hello] or [Welcome] on [s]. The first
   sighting of a new incarnation fences the dead one (DESIGN §7): drop
   what was queued for it, expect a channel from 0, close its sockets
   and redial at once. A peer never seen before keeps its backlog. *)
let meet l s boot =
  if l.peer_boot <> None && l.peer_boot <> Some boot then begin
    Chan.tx_fence l.ptx;
    Chan.rx_reset l.irx;
    List.iter
      (fun s' -> if s' != s then close_sock s')
      (Option.to_list l.out @ Option.to_list l.isock);
    l.dial_at <- now ();
    l.backoff <- backoff0
  end;
  l.peer_boot <- Some boot

(* ---- Frames in. ---------------------------------------------------- *)

(* A client is read only while it has no request running and no reply
   unwritten: one that pipelines requests holds one of each, and a
   closed-loop client never waits on this rule. *)
let wants_input s =
  match s.role with Client c -> c.inflight = 0 && idle s | _ -> true

let rec drain t s =
  if (not s.closed) && wants_input s then
    match Conn.next s.rd with
    | Ok (Some frame) ->
        on_frame t s frame;
        drain t s
    | Ok None -> ()
    | Error _ -> close_sock s

and on_frame t s frame =
  match (s.role, frame) with
  | Greeting l, Wire.Welcome { boot; rx_expected } ->
      if l.peer_boot <> None then Obs.Metrics.incr t.c.reconnects;
      meet l s boot;
      l.backoff <- backoff0;
      s.role <- Out l;
      List.iter
        (fun (seq, m) -> put_data t l seq m)
        (Chan.tx_reconnect l.ptx ~now:(now ()) ~rx_expected)
  | Out l, Wire.Ack { upto } -> ignore (Chan.tx_ack l.ptx ~now:(now ()) ~upto)
  | Accepted, Wire.Hello { src; boot }
    when src >= 0 && src < Array.length t.links && src <> t.me ->
      (* A new connection from [src] means its old one is dead: what we
         did not deliver from it, [Welcome] asks for again. *)
      let l = t.links.(src) in
      meet l s boot;
      Option.iter close_sock l.isock;
      s.role <- In l;
      l.isock <- Some s;
      put s (Wire.Welcome { boot = t.boot; rx_expected = Chan.rx_ack l.irx })
  | In l, Wire.Data { seq; msg } ->
      Chan.rx_data l.irx ~seq msg
      |> List.iter (fun m -> Obs.Metrics.incr t.c.delivered; t.handler ~src:l.id m);
      send_ack t l
  | Accepted, Wire.Req _ ->
      s.role <- Client { inflight = 0 };
      on_frame t s frame
  | Client c, Wire.Req _ ->
      c.inflight <- c.inflight + 1;
      t.client_handler frame ~reply:(fun resp ->
          c.inflight <- c.inflight - 1;
          if not s.closed then put s resp)
  | _ -> close_sock s

(* ---- The loop. ----------------------------------------------------- *)

(* The Hello waits in the out-buffer while the connect is in progress
   ([EAGAIN]); a failed connect fails its write. *)
let dial t l =
  match Conn.connect ~nonblocking:true t.eps.(l.id) with
  | Ok fd ->
      let s = add_sock t fd (Greeting l) in
      l.out <- Some s;
      put s (Wire.Hello { src = t.me; boot = t.boot })
  | Error _ -> redial_later l

(* Every [tick]: retransmit what is due on live connections, and ack
   every channel that advanced since its last ack. *)
let on_tick t now_ =
  Array.iter
    (fun l ->
      (match l.out with
      | Some { role = Out _; _ } ->
          Chan.tx_due l.ptx ~now:now_
          |> List.iter (fun (seq, m) -> Obs.Metrics.incr t.c.retransmits; put_data t l seq m)
      | _ -> ());
      Chan.rx_tick l.irx;
      send_ack t l)
    t.links

(* Every socket, every turn: read what came if it is readable, act on
   every whole frame (also on requests a client pipelined behind a
   reply that has now gone out), and send an ack that waited for the
   out-buffer. *)
let serve t s ~readable =
  if readable && (not s.closed) && Conn.fill s.rd = `Eof then close_sock s;
  drain t s;
  match s.role with In l -> send_ack t l | _ -> ()

(* One turn of the loop: run due timers, write once to every socket
   that holds bytes, [select] until a socket is ready, a deadline
   passes or [wake] is called, serve the sockets, then deliver what
   this node sent itself. *)
let pump t =
  let now_ = now () in
  if now_ >= t.next_tick then begin
    t.next_tick <- now_ +. tick;
    on_tick t now_
  end;
  let due, held = List.partition (fun (at, _, _) -> at <= now_) t.holds in
  t.holds <- held;
  List.iter (fun (_, s, frame) -> if not s.closed then put s frame) (List.rev due);
  let down l = l.id <> t.me && l.out = None in
  Array.iter (fun l -> if down l && now_ >= l.dial_at then dial t l) t.links;
  let deadline =
    Array.fold_left
      (fun d l -> if down l then Float.min d l.dial_at else d)
      (List.fold_left (fun d (at, _, _) -> Float.min d at) t.next_tick held)
      t.links
  in
  List.iter (flush t) t.socks;
  t.socks <- List.filter (fun s -> not s.closed) t.socks;
  let fds f = List.filter_map (fun s -> if f s then Some s.fd else None) t.socks in
  let rd = (t.wake_r :: Option.to_list t.listener) @ fds wants_input
  and wr = fds (fun s -> not (idle s)) in
  (* A request a client pipelined behind a reply that just went out
     already sits in its decoder: no byte will make its socket ready. *)
  let timeout =
    if Queue.is_empty t.loopback
       && not (List.exists (fun s -> wants_input s && Conn.ready s.rd) t.socks)
    then Float.max 0. (deadline -. now_)
    else 0.
  in
  (match Unix.select rd wr [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | r, _, _ ->
      List.iter (fun s -> serve t s ~readable:(List.memq s.fd r)) t.socks;
      Option.iter
        (fun l ->
          if List.memq l r then
            match Conn.accept t.eps.(t.me) l with
            | fd ->
                Unix.set_nonblock fd;
                ignore (add_sock t fd Accepted)
            | exception Unix.Unix_error _ -> ())
        t.listener;
      if List.memq t.wake_r r then begin
        Atomic.set t.woken false;
        let b = Bytes.create 64 in
        try while Unix.read t.wake_r b 0 64 > 0 do () done
        with Unix.Unix_error _ -> ()
      end);
  for _ = 1 to Queue.length t.loopback do
    t.handler ~src:t.me (Queue.pop t.loopback)
  done

exception Stopped

(* The contract every backend honours: handlers run only in [pump], so
   an operation meets them only at [await], and work that arrives
   meanwhile waits until it returns. A stop ends the wait: the
   operation is left as a crash would leave it. *)
let await t pred =
  while not (pred ()) do
    if Atomic.get t.stopping then raise Stopped;
    pump t
  done

let run t =
  t.loop_thread <- Thread.id (Thread.self ());
  let running () = not (Atomic.get t.stopping) in
  (try
     while running () do
       match Atomic.exchange t.posted [] with
       | [] -> pump t
       | fs -> List.iter (fun f -> if running () then f ()) (List.rev fs)
     done
   with Stopped -> ());
  (* What the last turn or work item left unwritten, such as a reply,
     gets one write before the loop is gone. *)
  List.iter (flush t) t.socks

(* At most one byte in the pipe: [pump] clears [woken] before it empties
   the pipe, and [run] reads [posted] after that. *)
let wake t =
  if not (Atomic.exchange t.woken true) then
    try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
    with Unix.Unix_error _ -> ()

(* A post from the loop's own thread (a client request, handled inside
   [pump]) needs no wake: [run] reads [posted] as soon as the pump or
   the running work item returns. *)
let rec post_work t f =
  let l = Atomic.get t.posted in
  if not (Atomic.compare_and_set t.posted l (f :: l)) then post_work t f
  else if Thread.id (Thread.self ()) <> t.loop_thread then wake t

let request_stop t =
  Atomic.set t.stopping true;
  wake t

let start t =
  let l = Conn.listen t.eps.(t.me) in
  Unix.set_nonblock l;
  t.listener <- Some l

let stop t =
  request_stop t;
  Option.iter close_quietly t.listener;
  (match t.eps.(t.me) with
  | Conn.Unix_ep path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Conn.Tcp_ep _ -> ());
  List.iter (flush t) t.socks;
  List.iter close_sock t.socks;
  (* [woken] stays set from here on, so no later [wake] writes. *)
  Unix.close t.wake_r;
  Unix.close t.wake_w

(* ---- The engine surface. ------------------------------------------- *)

let send t ~src ~dst m =
  if src = t.me && dst >= 0 && dst < Array.length t.links then begin
    Obs.Metrics.incr t.c.sent;
    if dst = t.me then (
      Obs.Metrics.incr t.c.delivered;
      Queue.push m t.loopback)
    else
      let l = t.links.(dst) in
      Obs.Metrics.incr t.c.data_sent;
      put_data t l (Chan.tx_send l.ptx ~now:(now ()) m) m
  end

let backend t =
  let n = Array.length t.links in
  {
    Backend.n;
    backend_name = "dist";
    now;
    send = send t;
    broadcast =
      (fun ~src m ->
        if src = t.me then Obs.Metrics.incr t.c.broadcasts;
        for dst = 0 to n - 1 do
          send t ~src ~dst m
        done);
    set_handler = (fun i h -> if i = t.me then t.handler <- h);
    set_msg_label = ignore;
    new_condition =
      (fun ~node ->
        let await pred =
          if node = t.me then await t pred
          else
            invalid_arg "Dist.Net: only the local node's condition can be awaited"
        in
        { Backend.await; signal = ignore });
    trace = Obs.Trace.noop;
    metrics = t.metrics;
  }
