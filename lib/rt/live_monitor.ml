(* Live online monitoring for the rt backend: a dedicated monitor domain
   consumes the history's invoke/respond/abort stream from a lock-free
   feed — [Service] makes [push] its [History] observer — and drives
   the streaming [Obs.Monitor] (A0-A4 for eq-aso, the S-pass for sso)
   against the live history, with bounded lag.

   Feed memory model (see DESIGN.md section 6d). [Service] stamps every
   history event under its single service lock, reading the monotonic
   clock INSIDE the critical section, and the history pushes the
   matching monitor event into the feed before the lock is released.
   Pushes are therefore totally ordered and their order agrees with the
   timestamp order, so the monitor — the queue's single consumer —
   replays exactly the time-ordered event stream the streaming
   checker's well-formedness pass requires. No reorder buffer, no false
   positives from cross-domain scheduling: the monitor lags the service
   by however many events sit in the queue ([lag]), but it never sees
   them out of order.

   On violation the monitor trips: it captures the verdict (the
   violation plus a causal-cone slice at the violating node's latest
   clock, when the causal log is on), stops consuming, and the
   deployment's [halted] — which [Load.run]'s clients poll — reports it,
   so intake stops and the serve run fails mid-flight rather than at
   the final batch check. *)

type verdict = {
  violation : Obs.Monitor.violation;
  slice : Obs.Vclock.event list;
      (* happened-before message cone into the violating op; [] when
         the causal log is off *)
  lag_events : int; (* feed depth when the monitor tripped *)
  at : float; (* service clock when the monitor tripped *)
}

type t = {
  (* [Queue] is multi-producer, but the service lock serializes the
     pushes: the queue's FIFO merge of its producers is then the lock
     order. *)
  feed : Obs.Monitor.event Queue.t;
  mon : Obs.Monitor.t;
  causal : Obs.Vclock.recorder option;
  now : unit -> float;
  throttle : (unit -> unit) option;
  tripped : verdict option Atomic.t;
  stopping : bool Atomic.t;
  pushed : int Atomic.t;
  checked : int Atomic.t;
  last_checked_at : float Atomic.t;
  g_lag : Obs.Metrics.gauge;
  c_events : Obs.Metrics.counter;
  c_scans : Obs.Metrics.counter;
  h_check : Obs.Metrics.log_histogram;
  h_lag : Obs.Metrics.log_histogram;
  mutable domain : unit Domain.t option;
}

let create ?(mode = Obs.Monitor.Atomic) ?causal ?throttle ~metrics ~now ~n ()
    =
  {
    feed = Queue.create ();
    mon = Obs.Monitor.create ~mode ~n ();
    causal;
    now;
    throttle;
    tripped = Atomic.make None;
    stopping = Atomic.make false;
    pushed = Atomic.make 0;
    checked = Atomic.make 0;
    last_checked_at = Atomic.make (now ());
    g_lag = Obs.Metrics.gauge metrics "aso.monitor.lag_events";
    c_events = Obs.Metrics.counter metrics "aso.monitor.events_checked";
    c_scans = Obs.Metrics.counter metrics "aso.monitor.scans_verified";
    h_check = Obs.Metrics.log_histogram metrics "aso.monitor.check_latency_s";
    (* Lag sampled at every consumed event, so the bench can report a
       lag p99 instead of only the instantaneous gauge. *)
    h_lag = Obs.Metrics.log_histogram metrics "aso.monitor.lag_dist";
    domain = None;
  }

let tripped t = Atomic.get t.tripped
let lag t = max 0 (Atomic.get t.pushed - Atomic.get t.checked)
let events_checked t = Atomic.get t.checked
let scans_verified t = Obs.Metrics.count t.c_scans

(* Seconds since the monitor last consumed an event — the "is the
   monitor domain stalled" indicator on the console sampler line. *)
let last_checked_age t = t.now () -. Atomic.get t.last_checked_at

(* Producer side: the history's observer, called under the service
   lock (which is what makes the feed time-ordered — see the header
   comment). *)
let push t ev =
  if Atomic.get t.tripped = None then begin
    Queue.push t.feed ev;
    Atomic.incr t.pushed
  end

let trip t (v : Obs.Monitor.violation) =
  let slice =
    match t.causal with
    | None -> []
    | Some vr -> Obs.Vclock.cone vr ~node:v.node
  in
  Atomic.set t.tripped
    (Some { violation = v; slice; lag_events = lag t; at = t.now () })

(* The monitor domain: pop, feed, account. Spins briefly on an empty
   feed before sleeping a fraction of a millisecond — the monitor must
   not steal a core from the node domains while idle, but should keep
   lag near zero under load. *)
let spin_budget = 256

let rec loop t spins =
  if Atomic.get t.tripped <> None then ()
  else
    match Queue.pop_opt t.feed with
    | Some ev ->
        (match t.throttle with Some f -> f () | None -> ());
        let t0 = t.now () in
        (match Obs.Monitor.feed t.mon ev with
        | Ok () -> ()
        | Error v -> trip t v);
        let t1 = t.now () in
        Obs.Metrics.record t.h_check (t1 -. t0);
        Obs.Metrics.incr t.c_events;
        (match ev with
        | Obs.Monitor.Respond_scan _ when Atomic.get t.tripped = None ->
            Obs.Metrics.incr t.c_scans
        | _ -> ());
        Atomic.incr t.checked;
        Atomic.set t.last_checked_at t1;
        let l = float_of_int (lag t) in
        Obs.Metrics.set t.g_lag l;
        Obs.Metrics.record t.h_lag l;
        loop t spin_budget
    | None ->
        if Atomic.get t.stopping then ()
        else if spins > 0 then begin
          Domain.cpu_relax ();
          loop t (spins - 1)
        end
        else begin
          Unix.sleepf 0.0002;
          loop t spin_budget
        end

let start t =
  if t.domain <> None then invalid_arg "Rt.Live_monitor.start: already running";
  t.domain <- Some (Domain.spawn (fun () -> loop t spin_budget))

(* Shutdown drains: [stopping] only takes effect on an empty feed, so
   every event pushed before [stop] is checked (unless the monitor
   tripped first) — the serve path needs the full history verified even
   when the run ends before the monitor caught up. [Queue.pop_opt] can
   report empty while a push is half done (tail swapped, link not yet
   published), which would end the drain one event early; that cannot
   happen here because every pusher has been joined by then:
   [Service.stop] joins the node domains before it calls [stop], and
   the only other pusher, [Service.restart_node], stamps on its
   caller's thread and has returned. Every push has completed, so every
   element is linked. *)
let stop t =
  Atomic.set t.stopping true;
  (match t.domain with
  | Some d ->
      t.domain <- None;
      Domain.join d
  | None -> ());
  Obs.Metrics.set t.g_lag (float_of_int (lag t));
  tripped t

let pp_verdict ppf v =
  Format.fprintf ppf "@[<v>LIVE MONITOR VIOLATION: %a@,lag at trip: %d events"
    Obs.Monitor.pp_violation v.violation v.lag_events;
  (match v.slice with
  | [] -> ()
  | evs ->
      Format.fprintf ppf "@,causal cone into op %d (%d events):"
        v.violation.op (List.length evs);
      List.iter (fun ev -> Format.fprintf ppf "@,  %a" Obs.Vclock.pp_event ev)
        evs);
  Format.fprintf ppf "@]"
