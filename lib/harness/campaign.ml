type report = {
  runs : int;
  operations : int;
  crashes_injected : int;
  failures : string list;
  metrics : Obs.Metrics.snapshot;
}

let one_run (algo : Algo.t) rng run_index =
  let n = 3 + Sim.Rng.int rng 7 in
  let f = (n - 1) / 2 in
  let seed = Sim.Rng.int64 rng in
  let workload_rng = Sim.Rng.create (Sim.Rng.int64 rng) in
  let workload =
    Workload.random workload_rng ~n
      ~ops_per_node:(2 + Sim.Rng.int rng 4)
      ~scan_fraction:(0.2 +. Sim.Rng.float rng 0.6)
      ~max_gap:(Sim.Rng.float rng 6.0)
  in
  let adversary =
    match Sim.Rng.int rng 3 with
    | 0 -> Adversary.No_faults
    | 1 ->
        let k = min f (max 0 (n - 2)) in
        if k = 0 then Adversary.No_faults
        else
          Adversary.Crash_k_random
            { k = 1 + Sim.Rng.int rng k; window = Sim.Rng.float rng 20.0 }
    | _ ->
        let k = min f (n - 2) in
        if k <= 0 then Adversary.No_faults
        else
          Adversary.Chains
            (Adversary.chains_for_budget ~min_len:1 ~n ~k ~scanner:(n - 1) ())
  in
  let delay =
    if Sim.Rng.bool rng then Runner.Fixed_d 1.0
    else Runner.Uniform_d { lo = 0.05; hi = 1.0; d = 1.0 }
  in
  let describe verdict =
    Printf.sprintf "run %d: %s n=%d f=%d: %s" run_index algo.Algo.name n f
      verdict
  in
  match
    Runner.run ~workload_seed:(Sim.Rng.int64 rng) ~make:algo.Algo.make
      { Runner.n; f; delay; seed }
      ~workload ~adversary
  with
  | exception exn -> (0, 0, [], Some (describe (Printexc.to_string exn)))
  | outcome -> (
      let ops = List.length (History.completed outcome.history) in
      let crashed = List.length outcome.crashed in
      match Checker.Batch.check algo.Algo.consistency outcome.history with
      | Ok () -> (ops, crashed, outcome.metrics, None)
      | Error e -> (ops, crashed, outcome.metrics, Some (describe e)))

let run ~algos ~runs ~seed =
  let rng = Sim.Rng.create seed in
  let operations = ref 0 in
  let crashes = ref 0 in
  let failures = ref [] in
  let executed = ref 0 in
  let metrics = ref [] in
  for run_index = 1 to runs do
    List.iter
      (fun algo ->
        incr executed;
        let ops, crashed, run_metrics, failure = one_run algo rng run_index in
        operations := !operations + ops;
        crashes := !crashes + crashed;
        metrics := Obs.Metrics.merge !metrics run_metrics;
        Option.iter (fun f -> failures := f :: !failures) failure)
      algos
  done;
  {
    runs = !executed;
    operations = !operations;
    crashes_injected = !crashes;
    failures = List.rev !failures;
    metrics = !metrics;
  }

(* Chaos sweep grid: loss rate x partition duration (in D). Every grid
   point also carries duplication and reordering at 10%. *)
let chaos_grid =
  [ (0.05, 0.); (0.15, 0.); (0.3, 0.); (0.05, 4.); (0.15, 4.); (0.3, 8.) ]

let one_chaos_run (algo : Algo.t) rng run_index =
  let drop, part_span =
    List.nth chaos_grid ((run_index - 1) mod List.length chaos_grid)
  in
  let n = 4 + Sim.Rng.int rng 5 in
  let f = (n - 1) / 2 in
  let k = Sim.Rng.int rng (f + 1) in
  let seed = Sim.Rng.int64 rng in
  let describe verdict =
    Printf.sprintf "chaos run %d: %s n=%d k=%d drop=%.2f part=%g: %s"
      run_index algo.Algo.name n k drop part_span verdict
  in
  match
    Scenario.chaos ~algo ~n ~k
      ~faults:{ drop; dup = 0.1; reorder = 0.1 }
      ~part_span
      ~ops_per_node:(2 + Sim.Rng.int rng 3)
      ~seed
  with
  | exception exn -> (0, 0, [], Some (describe (Printexc.to_string exn)))
  | row -> (row.Scenario.c_ops, row.Scenario.c_k, row.Scenario.c_metrics, None)

let chaos ~algos ~runs ~seed =
  let rng = Sim.Rng.create seed in
  let operations = ref 0 in
  let crashes = ref 0 in
  let failures = ref [] in
  let executed = ref 0 in
  let metrics = ref [] in
  for run_index = 1 to runs do
    List.iter
      (fun algo ->
        incr executed;
        let ops, crashed, run_metrics, failure =
          one_chaos_run algo rng run_index
        in
        operations := !operations + ops;
        crashes := !crashes + crashed;
        metrics := Obs.Metrics.merge !metrics run_metrics;
        Option.iter (fun f -> failures := f :: !failures) failure)
      algos
  done;
  {
    runs = !executed;
    operations = !operations;
    crashes_injected = !crashes;
    failures = List.rev !failures;
    metrics = !metrics;
  }

let pp ppf r =
  Format.fprintf ppf
    "campaign: %d runs, %d operations, %d crashes injected, %d failure(s)"
    r.runs r.operations r.crashes_injected
    (List.length r.failures);
  (* Key aggregates from the merged registry — the full snapshot is in
     [r.metrics] for callers that want more. *)
  let count name =
    Option.value ~default:0 (Obs.Metrics.find_count r.metrics name)
  in
  if r.metrics <> [] then begin
    Format.fprintf ppf "@.  messages: %d sent, %d delivered" (count "net.sent")
      (count "net.delivered");
    match
      Option.bind
        (Obs.Metrics.find_samples r.metrics "aso.rounds_per_update")
        Obs.Metrics.summary
    with
    | Some s ->
        Format.fprintf ppf "@.  rounds/update: mean %.2f max %.0f (%d samples)"
          s.Obs.Metrics.mean s.Obs.Metrics.max s.Obs.Metrics.s_count
    | None -> ()
  end;
  List.iter (fun f -> Format.fprintf ppf "@.  FAILED %s" f) r.failures
