(* Stateless model checking by replay. The engine is deterministic given
   its seed, so a schedule is identified by the answers handed out at
   its choice points (event-queue ties, link-fault decisions, crash
   step indices). An execution is "run with this forced answer prefix,
   default (0) afterwards"; exploration enumerates prefixes. *)

type strategy =
  | Dfs of { max_schedules : int; max_depth : int }
  | Random of { schedules : int; seed : int64 }

type sys = {
  make : Harness.Runner.maker;
  config : Harness.Runner.config;
  workload : Harness.Workload.t;
  adversary : Harness.Adversary.t;
  substrate : Sim.Network.substrate;
  crashes : (int * int array) list;
  restarts : (int * int array) list;
  max_link_faults : int;
  check : Harness.Runner.outcome -> (unit, string) result;
  watchdog : Harness.Runner.watchdog option;
  monitor : bool;
}

type run = {
  rec_trace : Trace.t;
  outcome : Harness.Runner.outcome option;
  verdict : (unit, string) result;
  online : Harness.Runner.caught option;
}

type violation = {
  message : string;
  trace : Trace.t;
  choices : int list;
  shrink_runs : int;
}

type report = {
  schedules : int;
  pruned : int;
  max_choice_points : int;
  exhausted : bool;
  depth_truncated : bool;
  violation : violation option;
}

(* One execution: forced answers for the first [Array.length forced]
   choice points, then defaults (or random draws in sampling mode).
   Crash choice points are consumed in [configure], before any event
   runs, so they always occupy the leading trace positions. *)
let exec ?trace sys ~forced ~sample =
  let recorded = ref [] in
  let pos = ref 0 in
  let link_faults = ref 0 in
  let decide choice =
    let d = Sim.Label.domain choice in
    let k =
      if !pos < Array.length forced then (
        let v = forced.(!pos) in
        if v < 0 || v >= d then 0 else v)
      else
        match sample with
        | None -> 0
        | Some rng -> (
            let k = Sim.Rng.int rng d in
            (* Liveness is only guaranteed under fair links: an
               unbounded random adversary would drop every
               retransmission with probability 1/2 forever, starving
               the transport past any watchdog and reporting a bogus
               liveness violation. Budget the sampled faults. *)
            match choice with
            | Sim.Label.Link_fault _ when k <> 0 ->
                if !link_faults >= sys.max_link_faults then 0
                else begin
                  incr link_faults;
                  k
                end
            | _ -> k)
    in
    recorded := { Trace.choice; chosen = k } :: !recorded;
    incr pos;
    k
  in
  let crashes_armed = ref 0 in
  let configure engine (instance : int Instance.t) =
    Sim.Engine.set_chooser engine (Some decide);
    List.iter
      (fun (node, steps) ->
        let k = decide (Sim.Label.Crash_step { node; steps }) in
        let s = steps.(k) in
        (* Never arm more than [f] crashes: beyond the resilience bound
           the algorithm legitimately loses liveness, so every such
           schedule would be a false violation. *)
        if s >= 0 && !crashes_armed < sys.config.f then begin
          incr crashes_armed;
          Sim.Engine.add_on_step engine (fun step ->
              if step = s && not (instance.is_crashed node) then
                instance.crash node)
        end)
      sys.crashes;
    List.iter
      (fun (node, steps) ->
        let k = decide (Sim.Label.Restart_step { node; steps }) in
        let s = steps.(k) in
        (* A restart only fires on a node that is actually down at that
           step; arming one needs no budget — reviving a node can only
           return capacity to the system. *)
        if s >= 0 then
          Sim.Engine.add_on_step engine (fun step ->
              if step = s && instance.is_crashed node then
                instance.restart node))
      sys.restarts
  in
  let monitor =
    if sys.monitor then Some (Obs.Monitor.create ~n:sys.config.n ())
    else None
  in
  let outcome, verdict, online =
    try
      let outcome =
        Harness.Runner.run ?trace ~substrate:sys.substrate
          ?watchdog:sys.watchdog ?monitor ~configure ~make:sys.make sys.config
          ~workload:sys.workload ~adversary:sys.adversary
      in
      (Some outcome, sys.check outcome, None)
    with
    | Harness.Runner.Monitor_violation c ->
        ( None,
          Error
            (Format.asprintf "online: %a [%d message(s) delivered, slice of \
                              %d causal event(s)]"
               Obs.Monitor.pp_violation c.violation c.delivered
               (List.length c.slice)),
          Some c )
    | Harness.Runner.Stuck msg -> (None, Error ("liveness: " ^ msg), None)
    | Sim.Engine.Deadlock msg -> (None, Error ("deadlock: " ^ msg), None)
    | Failure msg -> (None, Error ("failure: " ^ msg), None)
    | Invalid_argument msg -> (None, Error ("invalid-argument: " ^ msg), None)
  in
  { rec_trace = List.rev !recorded; outcome; verdict; online }

let run_choices ?trace sys cs =
  exec ?trace sys ~forced:(Array.of_list cs) ~sample:None

(* Sleep-set-style pruning at event-queue ties: alternative [j] opens a
   genuinely new partial order only if it conflicts with some event it
   would overtake. If label [j] commutes with every earlier tied label,
   running it first reaches a state already covered by the [j = 0]
   branch (see DESIGN.md for the soundness conditions). Fault and crash
   choices are never pruned — they change the fault pattern itself. *)
let explorable choice j =
  match choice with
  | Sim.Label.Tie labels ->
      let lj = labels.(j) in
      let rec conflicts i =
        i < j && ((not (Sim.Label.commute labels.(i) lj)) || conflicts (i + 1))
      in
      conflicts 0
  | Sim.Label.Link_fault _ | Sim.Label.Crash_step _ | Sim.Label.Restart_step _
    ->
      true

let first_n n l = List.filteri (fun i _ -> i < n) l

(* On the first violating schedule: delta-debug the choice list down to
   a minimal one, then re-run it to produce the trace and message the
   caller reports (and the replay file serializes). *)
let shrink_violation sys (run : run) =
  let violates cs =
    match (run_choices sys cs).verdict with Error _ -> true | Ok () -> false
  in
  let initial = Trace.trim_choices (Trace.choices run.rec_trace) in
  let choices, shrink_runs = Shrink.minimize ~violates initial in
  let final = run_choices sys choices in
  let message =
    match (final.verdict, run.verdict) with
    | Error m, _ | Ok (), Error m -> m
    | Ok (), Ok () -> assert false
  in
  (* Report only the forced prefix of the re-run's trace: beyond it the
     schedule is the default, so those entries carry no information. *)
  let trace = first_n (List.length choices) final.rec_trace in
  { message; trace; choices; shrink_runs }

(* Bounded systematic enumeration. Each frontier element is a forced
   prefix whose last choice deviates from the default; a run discovers
   the prefix's children (one per explorable alternative beyond it).
   The FIFO frontier yields deviation-count order — every 1-deviation
   schedule runs before any 2-deviation one, so shallow bugs ("drop
   exactly this packet") surface within the first few dozen schedules
   even when the full bounded space is out of reach. The enumerated set
   is the same as a stack's, so exhaustion is unaffected. *)
let dfs sys ~max_schedules ~max_depth =
  let schedules = ref 0 in
  let pruned = ref 0 in
  let max_cp = ref 0 in
  let truncated = ref false in
  let violation = ref None in
  let frontier = Queue.create () in
  Queue.add [] frontier;
  while
    (not (Queue.is_empty frontier))
    && !schedules < max_schedules
    && !violation = None
  do
    let prefix = Queue.pop frontier in
    let run = run_choices sys prefix in
    incr schedules;
    max_cp := max !max_cp (Trace.length run.rec_trace);
    match run.verdict with
    | Error _ -> violation := Some (shrink_violation sys run)
    | Ok () ->
        let all_choices = Trace.choices run.rec_trace in
        let plen = List.length prefix in
        List.iteri
          (fun i (e : Trace.entry) ->
            if i >= plen then begin
              let d = Sim.Label.domain e.choice in
              for j = 1 to d - 1 do
                if not (explorable e.choice j) then incr pruned
                else if i >= max_depth then truncated := true
                else Queue.add (first_n i all_choices @ [ j ]) frontier
              done
            end)
          run.rec_trace
  done;
  {
    schedules = !schedules;
    pruned = !pruned;
    max_choice_points = !max_cp;
    exhausted = Queue.is_empty frontier && !violation = None;
    depth_truncated = !truncated;
    violation = !violation;
  }

let random_walk sys ~schedules:total ~seed =
  let schedules = ref 0 in
  let max_cp = ref 0 in
  let violation = ref None in
  let i = ref 0 in
  while !violation = None && !i < total do
    let rng = Sim.Rng.create (Int64.add seed (Int64.of_int !i)) in
    let run = exec sys ~forced:[||] ~sample:(Some rng) in
    incr schedules;
    max_cp := max !max_cp (Trace.length run.rec_trace);
    (match run.verdict with
    | Error _ -> violation := Some (shrink_violation sys run)
    | Ok () -> ());
    incr i
  done;
  {
    schedules = !schedules;
    pruned = 0;
    max_choice_points = !max_cp;
    exhausted = false;
    depth_truncated = false;
    violation = !violation;
  }

let explore sys = function
  | Dfs { max_schedules; max_depth } -> dfs sys ~max_schedules ~max_depth
  | Random { schedules; seed } -> random_walk sys ~schedules ~seed

(* Sized against the fault budget: 4 concentrated drops on one flow
   inflate the transport's doubling RTO to ~40 D, so recovery lands by
   ~80 D — a 150 D watchdog never fires on a merely-slowed schedule,
   only on a genuinely stuck one. (The harness default of 400 D would
   also work but costs simulated time on every hung schedule.) *)
let default_watchdog = { Harness.Runner.budget = 150.; trace = 16 }

let sys_of_algo ?(crashes = []) ?(restarts = [])
    ?(substrate = Sim.Network.Ideal)
    ?(adversary = Harness.Adversary.No_faults)
    ?(watchdog = Some default_watchdog) ?mutation ?(monitor = false) ~config
    ~workload (algo : Harness.Algo.t) =
  let make =
    match mutation with None -> algo.make | Some m -> Mutants.make m
  in
  {
    make;
    config;
    workload;
    adversary;
    substrate;
    crashes;
    restarts;
    (* Paired with the 150 D watchdog: more simultaneous drops could
       inflate retransmission timers past any fixed budget and turn
       "slow" into a spurious "stuck". *)
    max_link_faults = 4;
    check =
      (fun (o : Harness.Runner.outcome) ->
        Checker.Batch.check algo.consistency o.history);
    watchdog;
    monitor;
  }

let campaign strategy systems =
  List.map (fun (name, sys) -> (name, explore sys strategy)) systems

let pp_report ppf r =
  Format.fprintf ppf
    "schedules explored: %d@.ties pruned (commuting): %d@.max choice points \
     per schedule: %d@.bounded space exhausted: %b%s"
    r.schedules r.pruned r.max_choice_points r.exhausted
    (if r.depth_truncated then " (branching cut by the depth bound)" else "");
  match r.violation with
  | None -> Format.fprintf ppf "@.violations: none"
  | Some v ->
      Format.fprintf ppf
        "@.VIOLATION: %s@.minimal choice trace (%d choices, %d shrink \
         runs): %a"
        v.message (List.length v.choices) v.shrink_runs Trace.pp v.trace
