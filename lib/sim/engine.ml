type t = {
  mutable now : float;
  events : (unit -> unit) Event_queue.t;
  runnable : (unit -> unit) Queue.t;
  rng : Rng.t;
  mutable blocking : int;
  mutable steps : int;
  mutable time_advances : int;
  mutable trace : Obs.Trace.t;
  (* Vector-clock recorder: when installed (before networks are built),
     every network send/deliver is logged with its flow id for causal
     analysis. *)
  mutable causal : Obs.Vclock.recorder option;
  (* Controllable scheduler: when installed, same-timestamp event-queue
     ties and lossy-link fault decisions are routed through it instead
     of FIFO order / the RNG. *)
  mutable chooser : (Label.choice -> int) option;
  (* Step hooks, called with the index of the step about to execute —
     the model checker's crash-injection sites. *)
  mutable on_step : (int -> unit) list;
}

exception Deadlock of string

let create ?(seed = 1L) () =
  {
    now = 0.;
    events = Event_queue.create ();
    runnable = Queue.create ();
    rng = Rng.create seed;
    blocking = 0;
    steps = 0;
    time_advances = 0;
    trace = Obs.Trace.noop;
    causal = None;
    chooser = None;
    on_step = [];
  }

let now t = t.now
let rng t = t.rng
let steps t = t.steps
let time_advances t = t.time_advances
let trace t = t.trace
let set_trace t trace = t.trace <- trace
let causal t = t.causal
let set_causal t r = t.causal <- r
let chooser t = t.chooser
let set_chooser t c = t.chooser <- c
let add_on_step t f = t.on_step <- f :: t.on_step

let choose t choice =
  match t.chooser with
  | None -> 0
  | Some f ->
      let k = f choice and d = Label.domain choice in
      if k < 0 || k >= d then
        invalid_arg
          (Printf.sprintf "Sim.Engine: chooser returned %d for %s (domain %d)"
             k (Label.describe choice) d);
      k

let schedule ?label t ~delay f =
  assert (delay >= 0.);
  Event_queue.add ?label t.events ~time:(t.now +. delay) f

let push_runnable t f = Queue.push f t.runnable

let add_blocking t = t.blocking <- t.blocking + 1
let remove_blocking t = t.blocking <- t.blocking - 1
let blocked_count t = t.blocking

let default_max_steps = 50_000_000

(* Drain the runnable queue, then advance time to the next event. The
   runnable queue always empties before time moves: wakeups scheduled
   "now" happen before any later message delivery. *)
let run_loop t ~until ~max_steps =
  let steps = ref 0 in
  let bump () =
    (match t.on_step with
    | [] -> ()
    | hooks -> List.iter (fun f -> f t.steps) hooks);
    incr steps;
    t.steps <- t.steps + 1;
    if !steps > max_steps then
      failwith
        (Printf.sprintf "Sim.Engine: exceeded %d steps at t=%g (livelock?)"
           max_steps t.now)
  in
  let pop_event () =
    match t.chooser with
    | Some _ when Event_queue.ties t.events > 1 ->
        let labels = Event_queue.tie_labels t.events in
        let k = choose t (Label.Tie labels) in
        Event_queue.pop_tie t.events k
    | _ -> (
        match Event_queue.pop t.events with
        | Some tf -> tf
        | None -> assert false)
  in
  let continue = ref true in
  while !continue do
    if not (Queue.is_empty t.runnable) then begin
      bump ();
      (Queue.pop t.runnable) ()
    end
    else
      match Event_queue.peek_time t.events with
      | None -> continue := false
      | Some time when time > until -> continue := false
      | Some _ ->
          bump ();
          let time, f = pop_event () in
          if time > t.now then t.time_advances <- t.time_advances + 1;
          t.now <- time;
          f ()
  done

let run ?(until = infinity) ?(max_steps = default_max_steps) t =
  run_loop t ~until ~max_steps

let run_until_quiescent ?(max_steps = default_max_steps) t =
  run_loop t ~until:infinity ~max_steps;
  if t.blocking > 0 then
    raise
      (Deadlock
         (Printf.sprintf
            "simulation quiescent at t=%g with %d blocking fiber(s) still \
             suspended"
            t.now t.blocking))
