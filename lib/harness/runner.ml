type delay_spec =
  | Fixed_d of float
  | Uniform_d of { lo : float; hi : float; d : float }

type config = { n : int; f : int; delay : delay_spec; seed : int64 }

let default_config = { n = 8; f = 3; delay = Fixed_d 1.0; seed = 42L }

type outcome = {
  history : History.t;
  end_time : float;
  messages : int;
  d : float;
  crashed : int list;
  algorithm : string;
  net : Instance.net_stats;
  metrics : Obs.Metrics.snapshot;
}

exception Stuck of string

type caught = {
  violation : Obs.Monitor.violation;
  delivered : int;
  slice : Obs.Vclock.event list;
}

exception Monitor_violation of caught

(* Monitor plumbing handed to the client fibers for the events that are
   not history records; the no-op instance keeps unmonitored runs on the
   exact code path they had before. *)
type feeder = {
  feed : Obs.Monitor.event -> unit;
  rounds_count : unit -> int; (* -1 = histogram absent *)
  rounds_last : unit -> float;
}

let no_feeder =
  { feed = (fun _ -> ()); rounds_count = (fun () -> -1);
    rounds_last = (fun () -> 0.) }

type watchdog = { budget : float; trace : int }

let default_watchdog = { budget = 400.; trace = 32 }

type maker =
  Sim.Engine.t -> n:int -> f:int -> delay:Sim.Delay.t -> int Instance.t

let make_delay engine = function
  | Fixed_d d -> Sim.Delay.fixed d
  | Uniform_d { lo; hi; d } ->
      Sim.Delay.uniform (Sim.Rng.split (Sim.Engine.rng engine)) ~lo ~hi d

let client_fiber engine (instance : int Instance.t) history next_value
    feeder node steps () =
  let rec walk = function
    | [] -> ()
    | { Workload.gap; op } :: rest ->
        if gap > 0. then
          Sim.Fiber.sleep ~label:(Sim.Label.Timer node) engine gap;
        (* A fiber that slept through a crash-restart cycle must not
           resume the old schedule: its node is mid-recovery (or serving
           the post-restart fiber's traffic). Stop walking — post-restart
           operations are the restart hook's job. *)
        if not (instance.is_crashed node) && not (instance.is_recovering node)
        then begin
          (match op with
          | Workload.Update ->
              let value = !next_value in
              incr next_value;
              let rec_op =
                History.begin_update history ~now:(Sim.Engine.now engine)
                  ~node ~value
              in
              let before = feeder.rounds_count () in
              instance.update node value;
              History.finish_update history ~now:(Sim.Engine.now engine) rec_op;
              (* [observing_rounds] appends this op's lattice-op count as
                 the histogram's newest sample at completion; no other
                 step runs between the protocol call returning and here,
                 so the last sample is ours. *)
              let after = feeder.rounds_count () in
              if after > before && after > 0 then
                feeder.feed
                  (Obs.Monitor.Rounds
                     { id = rec_op.id; rounds = feeder.rounds_last () })
          | Workload.Scan ->
              let rec_op =
                History.begin_scan history ~now:(Sim.Engine.now engine) ~node
              in
              let snap = instance.scan node in
              History.finish_scan history ~now:(Sim.Engine.now engine) rec_op
                ~snap);
          walk rest
        end
  in
  walk steps

(* Post-restart traffic: wait out the node's recovery (poll — its length
   is protocol- and schedule-dependent), then drive fresh operations
   through the ordinary client machinery so they are recorded, monitored
   and liveness-checked exactly like pre-crash ones. *)
let post_restart_fiber engine instance history next_value feeder node ops () =
  let rec wait () =
    if instance.Instance.is_recovering node then begin
      Sim.Fiber.sleep ~label:(Sim.Label.Timer node) engine 1.0;
      wait ()
    end
  in
  wait ();
  if not (instance.Instance.is_crashed node) then
    client_fiber engine instance history next_value feeder node
      (List.map (fun op -> { Workload.gap = 1.0; op }) ops)
      ()

(* The watchdog's post-mortem: the pending operations, the per-node
   transport/link state, and the tail of the structured trace —
   everything needed to see {e where} a hung operation is waiting. *)
let diagnose (instance : int Instance.t) history ~tail ~now ~budget =
  let stuck =
    List.filter
      (fun (op : History.op) -> not (instance.is_crashed op.node))
      (History.pending history)
  in
  Format.asprintf
    "%s: liveness watchdog: %d operation(s) still pending at t=%g (budget \
     %g D)@.pending:@.%a@.%t%t"
    instance.name (List.length stuck) now budget
    (Format.pp_print_list ~pp_sep:Format.pp_print_newline (fun ppf op ->
         Format.fprintf ppf "  %a" History.pp_op op))
    stuck
    (fun ppf -> instance.dump_net ppf)
    (fun ppf ->
      if tail <> [] then begin
        Format.fprintf ppf "@.last %d trace event(s):" (List.length tail);
        List.iter
          (fun ev -> Format.fprintf ppf "@.  %a" Obs.Trace.pp_event ev)
          tail
      end)

let run ?workload_seed ?(substrate = Sim.Network.Ideal) ?watchdog ?trace
    ?causal ?monitor ?configure
    ?(restart_ops = [ Workload.Update; Workload.Scan ]) ~make config ~workload
    ~adversary =
  let engine = Sim.Engine.create ~seed:config.seed () in
  (* One trace serves both consumers: a caller-supplied unbounded trace
     for export, or the watchdog's bounded ring for the [Stuck] tail.
     Attached before [make] so every component captures it at creation;
     with neither, the noop trace keeps schedules bit-identical to an
     uninstrumented run. *)
  let obs =
    match (trace, watchdog) with
    | Some tr, _ -> tr
    | None, Some { trace = cap; _ } when cap > 0 ->
        Obs.Trace.create ~capacity:cap ()
    | None, _ -> Obs.Trace.noop
  in
  Sim.Engine.set_trace engine obs;
  (* Vector-clock recorder: caller-owned for export, or private when
     only the monitor needs it (its violations carry a causal slice).
     Attached before [make] so networks capture it at creation. *)
  let causal_rec =
    match (causal, monitor) with
    | Some r, _ -> Some r
    | None, Some _ -> Some (Obs.Vclock.recorder ~n:config.n ())
    | None, None -> None
  in
  Sim.Engine.set_causal engine causal_rec;
  let delay = make_delay engine config.delay in
  let instance : int Instance.t =
    Sim.Network.with_substrate substrate (fun () ->
        make engine ~n:config.n ~f:config.f ~delay)
  in
  (* Model-checking hook: the engine and the freshly built deployment
     exist, but no event has run yet — the right moment to install a
     controllable scheduler and step-indexed crash injections. *)
  Option.iter (fun f -> f engine instance) configure;
  let next_value = ref 1 in
  let feeder =
    match monitor with
    | None -> no_feeder
    | Some m ->
        let catch (v : Obs.Monitor.violation) =
          let slice =
            match causal_rec with
            | None -> []
            | Some r -> Obs.Vclock.cone r ~node:v.node
          in
          let stats : Instance.net_stats = instance.net_stats () in
          raise
            (Monitor_violation
               { violation = v; delivered = stats.delivered; slice })
        in
        let feed ev =
          match Obs.Monitor.feed m ev with Ok () -> () | Error v -> catch v
        in
        let samples () =
          Obs.Metrics.find_samples (instance.metrics ())
            "aso.rounds_per_update"
        in
        {
          feed;
          rounds_count =
            (fun () ->
              match samples () with
              | None -> -1
              | Some s -> List.length s);
          rounds_last =
            (fun () ->
              match samples () with
              | None | Some [] -> 0.
              | Some s -> List.nth s (List.length s - 1));
        }
  in
  (* The history emits every Invoke/Respond/Abort itself; the feeder
     adds only what is not a history record: crashes, restarts and
     round counts. *)
  let history = History.create ~observe:feeder.feed () in
  (match monitor with
  | None -> ()
  | Some _ ->
      instance.on_crash (fun node ->
          feeder.feed
            (Obs.Monitor.Crash { node; at = Sim.Engine.now engine })));
  (* Restart bookkeeping is unconditional (not monitor-only): the final
     liveness check must know the node's pre-crash pending op was
     aborted, or it would wait forever for an operation restart
     deliberately killed. The hook runs inside the restart event, after
     the instance reset [is_recovering] to true and before any delivery
     reaches the revived node. *)
  instance.on_restart (fun node ->
      let now = Sim.Engine.now engine in
      History.abort_node history ~now ~node;
      feeder.feed (Obs.Monitor.Restart { node; at = now });
      if restart_ops <> [] then
        Sim.Fiber.spawn engine
          (post_restart_fiber engine instance history next_value feeder node
             restart_ops));
  let adversary_rng =
    Sim.Rng.create (Option.value workload_seed ~default:config.seed)
  in
  Adversary.apply adversary ~rng:adversary_rng ~engine instance;
  Array.iteri
    (fun node steps ->
      if steps <> [] then
        Sim.Fiber.spawn engine
          (client_fiber engine instance history next_value feeder node steps))
    workload;
  (match watchdog with
  | None -> Sim.Engine.run_until_quiescent engine
  | Some { budget; trace = tail_n } ->
      (* Bounded run: a protocol that hangs (or a transport stuck behind
         an unhealed partition) becomes a failing test with a diagnostic
         dump instead of a simulation that never goes quiescent. *)
      let deadline = budget *. Sim.Delay.bound delay in
      Sim.Engine.run ~until:deadline engine;
      if
        List.exists
          (fun (op : History.op) -> not (instance.is_crashed op.node))
          (History.pending history)
      then
        raise
          (Stuck
             (diagnose instance history ~tail:(Obs.Trace.tail obs tail_n)
                ~now:(Sim.Engine.now engine) ~budget)));
  (* Liveness: any operation still pending must belong to a node that
     crashed mid-operation. *)
  List.iter
    (fun (op : History.op) ->
      if not (instance.is_crashed op.node) then
        raise
          (Stuck
             (Format.asprintf "%s: operation did not terminate: %a"
                instance.name History.pp_op op)))
    (History.pending history);
  {
    history;
    end_time = Sim.Engine.now engine;
    messages = instance.messages ();
    d = Sim.Delay.bound delay;
    crashed =
      List.filter (fun i -> instance.is_crashed i) (List.init config.n Fun.id);
    algorithm = instance.name;
    net = instance.net_stats ();
    metrics =
      instance.metrics ()
      @ [
          ("engine.steps", Obs.Metrics.Count (Sim.Engine.steps engine));
          ( "engine.time_advances",
            Obs.Metrics.Count (Sim.Engine.time_advances engine) );
        ];
  }

let latencies_of outcome ~keep =
  List.filter_map
    (fun (op : History.op) ->
      if keep op then
        Option.map (fun dur -> dur /. outcome.d) (History.duration op)
      else None)
    (History.ops outcome.history)

let update_latencies outcome = latencies_of outcome ~keep:History.is_update
let scan_latencies outcome = latencies_of outcome ~keep:History.is_scan

let max_latency = List.fold_left Float.max 0.

let mean_latency = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
