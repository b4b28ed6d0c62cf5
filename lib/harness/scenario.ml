type row = {
  algo : string;
  k : int;
  rounds : int;
  worst_update : float;
  mean_update : float;
  worst_scan : float;
  mean_scan : float;
  mean_rounds_upd : float;
  max_rounds_upd : float;
  messages : int;
  end_time : float;
}

let run_and_check ?substrate ?watchdog ~(algo : Algo.t) ~config ~workload
    ~adversary ~seed () =
  let outcome =
    Runner.run ~workload_seed:seed ?substrate ?watchdog ~make:algo.make config
      ~workload ~adversary
  in
  (match Checker.Batch.check algo.consistency outcome.history with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "%s: correctness violation: %s" algo.name e));
  outcome

let stats_row ~(algo : Algo.t) ~k ~rounds outcome =
  let updates = Runner.update_latencies outcome in
  let scans = Runner.scan_latencies outcome in
  let or_nan f = function [] -> Float.nan | l -> f l in
  (* Rounds-per-UPDATE: lattice operations per completed update, sampled
     by the instrumented algorithms; nan for algorithms without the
     histogram (register baselines). *)
  let mean_rounds_upd, max_rounds_upd =
    match
      Option.bind
        (Obs.Metrics.find_samples outcome.Runner.metrics
           "aso.rounds_per_update")
        Obs.Metrics.summary
    with
    | Some s -> (s.Obs.Metrics.mean, s.Obs.Metrics.max)
    | None -> (Float.nan, Float.nan)
  in
  {
    algo = algo.name;
    k;
    rounds;
    worst_update = or_nan Runner.max_latency updates;
    mean_update = or_nan Runner.mean_latency updates;
    worst_scan = or_nan Runner.max_latency scans;
    mean_scan = or_nan Runner.mean_latency scans;
    mean_rounds_upd;
    max_rounds_upd;
    messages = outcome.messages;
    end_time = (outcome.end_time /. outcome.d);
  }

let chain_storm ~algo ~k ~rounds ~seed =
  let n = max 5 ((2 * k) + 3) in
  let f = (n - 1) / 2 in
  let scanner = n - 1 in
  let live_updater = n - 2 in
  (* min_len 3: a multi-phase operation spends ~3 delays in its tag
     phases before its equivalence wait begins; shorter chains expose
     their value before anyone is vulnerable. *)
  let chains =
    if k = 0 then []
    else Adversary.chains_for_budget ~min_len:3 ~n ~k ~scanner ()
  in
  let chain_updaters = List.map (fun c -> c.Adversary.updater) chains in
  let workload = Array.make n [] in
  (* Chain j's value is exposed at time ~ start_j + length_j + 2, and
     disturbs a victim's equivalence wait for one delay. Lengths grow by
     1 per chain, so starts shrink by 0.2 per chain: exposures land 0.8
     apart — inside each other's disturbance windows and off the integer
     event grid, so the equivalence predicate cannot blink true between
     waves. (The real adversary controls sub-D timing; this encodes it.) *)
  let m = List.length chain_updaters in
  List.iteri
    (fun idx u ->
      workload.(u) <-
        [
          {
            Workload.gap = 0.2 *. float_of_int (m - 1 - idx);
            op = Workload.Update;
          };
        ])
    chain_updaters;
  (* The live updater establishes the tag the chained (concurrent)
     values share. Its start is phase-matched so that its equivalence
     wait (which begins ~6 delays after invocation) opens inside the
     first chain's disturbance window; the scanner joins at t=4.5, once
     the new tag is readable, so its wait overlaps the exposure train's
     tail. Each victim then stays blocked until the train ends. *)
  let updater_gap = Float.max 0. ((0.2 *. float_of_int (m - 1)) +. 0.1) in
  workload.(live_updater) <-
    { Workload.gap = updater_gap; op = Workload.Update }
    :: { Workload.gap = 0.0; op = Workload.Scan }
    :: List.concat
         (List.init (max 0 (rounds - 1)) (fun _ ->
              [ { Workload.gap = 0.0; op = Workload.Update };
                { Workload.gap = 0.0; op = Workload.Scan } ]));
  workload.(scanner) <-
    { Workload.gap = 4.5; op = Workload.Scan }
    :: List.concat
         (List.init (max 0 (rounds - 1)) (fun _ ->
              [ { Workload.gap = 0.0; op = Workload.Update };
                { Workload.gap = 0.0; op = Workload.Scan } ]));
  let config = { Runner.n; f; delay = Runner.Fixed_d 1.0; seed } in
  let outcome =
    run_and_check ~algo ~config ~workload
      ~adversary:(Adversary.Chains chains) ~seed ()
  in
  stats_row ~algo ~k:(List.length outcome.crashed) ~rounds outcome

let failure_free ~algo ~n ~rounds ~seed =
  let f = (n - 1) / 2 in
  let config = { Runner.n; f; delay = Runner.Fixed_d 1.0; seed } in
  let workload = Workload.closed_loop ~n ~rounds in
  let outcome =
    run_and_check ~algo ~config ~workload ~adversary:Adversary.No_faults ~seed
      ()
  in
  stats_row ~algo ~k:0 ~rounds outcome

let random_crashes ~algo ~n ~k ~ops_per_node ~seed =
  let f = (n - 1) / 2 in
  if k > f then invalid_arg "Scenario.random_crashes: k > f";
  let rng = Sim.Rng.create seed in
  let workload =
    Workload.random rng ~n ~ops_per_node ~scan_fraction:0.5 ~max_gap:4.0
  in
  let config = { Runner.n; f; delay = Runner.Fixed_d 1.0; seed } in
  let outcome =
    run_and_check ~algo ~config ~workload
      ~adversary:(Adversary.Crash_k_random { k; window = 10.0 })
      ~seed ()
  in
  stats_row ~algo ~k ~rounds:ops_per_node outcome

(* ------------------------------------------------------------------ *)
(* Chaos: the same algorithms, unmodified, on the lossy substrate. *)

type chaos_row = {
  c_algo : string;
  faults : Chan.faults;
  part_span : float;  (** partition duration in D; 0 = no partition *)
  c_k : int;
  c_ops : int;
  c_msgs : int;
  wire : int;
  lost : int;
  overhead : float;
  c_end : float;
  c_metrics : Obs.Metrics.snapshot;
}

let two_halves n =
  [ List.init (n / 2) Fun.id; List.init (n - (n / 2)) (fun i -> i + (n / 2)) ]

let chaos ~algo ~n ~k ~faults ~part_span ~ops_per_node ~seed =
  let f = (n - 1) / 2 in
  if k > f then invalid_arg "Scenario.chaos: k > f";
  let rng = Sim.Rng.create seed in
  let workload =
    Workload.random rng ~n ~ops_per_node ~scan_fraction:0.5 ~max_gap:4.0
  in
  let parts =
    [ Adversary.Lossy faults ]
    @ (if part_span > 0. then
         [
           Adversary.Partition
             { groups = two_halves n; from_ = 2.0; until = 2.0 +. part_span };
         ]
       else [])
    @
    if k > 0 then [ Adversary.Crash_k_random { k; window = 10.0 } ] else []
  in
  let config = { Runner.n; f; delay = Runner.Fixed_d 1.0; seed } in
  let outcome =
    run_and_check
      ~substrate:(Sim.Network.Lossy Sim.Link.no_faults)
      ~watchdog:Runner.default_watchdog ~algo ~config ~workload
      ~adversary:(Adversary.Compose parts) ~seed ()
  in
  {
    c_algo = algo.Algo.name;
    faults;
    part_span;
    c_k = List.length outcome.crashed;
    c_ops = List.length (History.completed outcome.history);
    c_msgs = outcome.net.sent;
    wire = outcome.net.wire_sent;
    lost = outcome.net.wire_lost + outcome.net.wire_cut;
    overhead = Instance.overhead_factor outcome.net;
    c_end = outcome.end_time /. outcome.d;
    c_metrics = outcome.metrics;
  }

let chaos_header =
  [ "algorithm"; "drop"; "dup"; "reorder"; "part"; "k"; "ops"; "msgs";
    "wire"; "lost"; "overhead"; "makespan" ]

let chaos_cells r =
  [
    r.c_algo;
    Printf.sprintf "%.2f" r.faults.drop;
    Printf.sprintf "%.2f" r.faults.dup;
    Printf.sprintf "%.2f" r.faults.reorder;
    Table.cell_f r.part_span;
    string_of_int r.c_k;
    string_of_int r.c_ops;
    string_of_int r.c_msgs;
    string_of_int r.wire;
    string_of_int r.lost;
    Printf.sprintf "%.2f" r.overhead;
    Table.cell_f r.c_end;
  ]

let header =
  [ "algorithm"; "k"; "rounds"; "upd worst"; "upd mean"; "scan worst";
    "scan mean"; "la/upd"; "msgs"; "makespan" ]

let to_cells r =
  [
    r.algo;
    string_of_int r.k;
    string_of_int r.rounds;
    Table.cell_f r.worst_update;
    Table.cell_f r.mean_update;
    Table.cell_f r.worst_scan;
    Table.cell_f r.mean_scan;
    Table.cell_n r.mean_rounds_upd;
    string_of_int r.messages;
    Table.cell_f r.end_time;
  ]
