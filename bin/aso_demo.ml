(* Command-line driver: run any snapshot algorithm on configurable
   workloads with configurable adversaries, check the resulting history,
   and replay the paper's worked examples (Figures 1 and 2).

     aso_demo run --algo eq-aso --nodes 9 --crashes 3 --ops 6
     aso_demo fig1
     aso_demo fig2
     aso_demo sweep --algo eq-aso
     aso_demo serve eq-aso --nodes 4 --clients 8 --secs 2 *)

open Cmdliner

let algo_conv =
  let parse s =
    match Harness.Algo.find s with
    | a -> Ok a
    | exception Not_found ->
        Error
          (`Msg
            (Printf.sprintf "unknown algorithm %S (try: %s)" s
               (String.concat ", "
                  (List.map (fun (a : Harness.Algo.t) -> a.name) Harness.Algo.all))))
  in
  let print ppf (a : Harness.Algo.t) = Format.fprintf ppf "%s" a.name in
  Arg.conv (parse, print)

let algo_arg =
  Arg.(
    value
    & opt algo_conv Harness.Algo.eq_aso
    & info [ "a"; "algo" ] ~docv:"ALGO"
        ~doc:"Algorithm: dc-aso, sc-aso, scd-aso, eq-aso, sso-fast-scan.")

let nodes_arg =
  Arg.(value & opt int 7 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"System size.")

let crashes_arg =
  Arg.(
    value & opt int 0
    & info [ "k"; "crashes" ] ~docv:"K" ~doc:"Random crash faults to inject.")

let ops_arg =
  Arg.(
    value & opt int 5
    & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per node.")

let seed_arg =
  Arg.(
    value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let scan_frac_arg =
  Arg.(
    value & opt float 0.5
    & info [ "scan-fraction" ] ~docv:"P" ~doc:"Probability an op is a SCAN.")

(* The one link-fault vocabulary, for every subcommand that injects
   faults: the sim's lossy substrate (causal, chaos, explore) and the
   socket backend (dist-node, dist-serve). *)
let rate_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (Chan.rate_of_string s)),
      fun ppf p -> Format.pp_print_string ppf (Chan.string_of_rate p) )

let faults_term ?(default = Chan.no_faults) () =
  let rate name p doc =
    Arg.(value & opt rate_conv p & info [ name ] ~docv:"P" ~doc)
  in
  Term.(
    const (fun drop dup reorder -> { Chan.drop; dup; reorder })
    $ rate "drop" default.drop
        "Per-packet loss probability, in [0, 1). On the simulator every \
         positive rate is a per-packet coin flip (a choice point under \
         explore); on dist-node it applies to each data frame sent."
    $ rate "dup" default.dup "Per-packet duplication probability."
    $ rate "reorder" default.reorder
        "Per-packet reordering probability (dist holds the frame back \
         for up to 5 ms).")

(* Zero faults select the ideal network, any fault the lossy stack. *)
let substrate_of faults =
  if faults = Chan.no_faults then Sim.Network.Ideal
  else Sim.Network.Lossy faults

(* ---- run: generic workload ----------------------------------------- *)

let run_cmd_impl (algo : Harness.Algo.t) n k ops seed scan_fraction =
  let f = Quorum.max_crash_faults n in
  if k > f then (
    Format.eprintf "error: k=%d exceeds f=%d for n=%d@." k f n;
    exit 1);
  let seed64 = Int64.of_int seed in
  let rng = Sim.Rng.create seed64 in
  let workload =
    Harness.Workload.random rng ~n ~ops_per_node:ops
      ~scan_fraction ~max_gap:4.0
  in
  let adversary =
    if k = 0 then Harness.Adversary.No_faults
    else Harness.Adversary.Crash_k_random { k; window = 10.0 }
  in
  let config =
    { Harness.Runner.n; f; delay = Harness.Runner.Fixed_d 1.0; seed = seed64 }
  in
  let outcome =
    Harness.Runner.run ~workload_seed:seed64 ~make:algo.make config ~workload
      ~adversary
  in
  Format.printf "algorithm   : %s (%s)@." outcome.algorithm algo.paper_row;
  Format.printf "nodes       : n=%d f=%d crashed=%d@." n f
    (List.length outcome.crashed);
  Format.printf "operations  : %d completed, %d pending (crashed nodes)@."
    (List.length (History.completed outcome.history))
    (List.length (History.pending outcome.history));
  Format.printf "messages    : %d@." outcome.messages;
  Format.printf "makespan    : %.1f D@." (outcome.end_time /. outcome.d);
  let upd = Harness.Runner.update_latencies outcome in
  let scn = Harness.Runner.scan_latencies outcome in
  Format.printf "update      : worst %.1f D, mean %.1f D (%d ops)@."
    (Harness.Runner.max_latency upd)
    (Harness.Runner.mean_latency upd)
    (List.length upd);
  Format.printf "scan        : worst %.1f D, mean %.1f D (%d ops)@."
    (Harness.Runner.max_latency scn)
    (Harness.Runner.mean_latency scn)
    (List.length scn);
  let label = Checker.Batch.label algo.consistency in
  match Checker.Batch.check algo.consistency outcome.history with
  | Ok () -> Format.printf "history     : %s (checked)@." label
  | Error e ->
      Format.printf "history     : NOT %s — %s@." label e;
      exit 1

let run_cmd =
  let doc = "Run a random workload against an algorithm and check it." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_cmd_impl $ algo_arg $ nodes_arg $ crashes_arg $ ops_arg
      $ seed_arg $ scan_frac_arg)

(* ---- fig1: history + linearization --------------------------------- *)

let fig1_impl () =
  Format.printf
    "Figure 1 — a real EQ-ASO history, its conditions, and its@.";
  Format.printf "linearization (Steps I-II of Theorem 1).@.@.";
  let n = 2 and f = 0 in
  let engine = Sim.Engine.create ~seed:1L () in
  let t = Aso_core.Eq_aso.create engine ~n ~f ~delay:(Sim.Delay.fixed 1.0) in
  let history = History.create () in
  let update node v =
    let op = History.begin_update history ~now:(Sim.Engine.now engine) ~node ~value:v in
    Aso_core.Eq_aso.update t ~node v;
    History.finish_update history ~now:(Sim.Engine.now engine) op
  in
  let scan node =
    let op = History.begin_scan history ~now:(Sim.Engine.now engine) ~node in
    let snap = Aso_core.Eq_aso.scan t ~node in
    History.finish_scan history ~now:(Sim.Engine.now engine) op ~snap
  in
  (* Node 0 plays "node 1" of the figure: UPDATE(1) ... UPDATE(4), SCAN;
     node 1 plays "node 2": UPDATE(2), UPDATE(3), SCAN. *)
  Sim.Fiber.spawn engine (fun () ->
      update 0 1;
      Sim.Fiber.sleep engine 6.0;
      update 0 4;
      scan 0);
  Sim.Fiber.spawn engine (fun () ->
      Sim.Fiber.sleep engine 7.0;
      update 1 2;
      update 1 3;
      scan 1);
  Sim.Engine.run_until_quiescent engine;
  Format.printf "History H (invocation order):@.%a@.@." History.pp history;
  Format.printf "Timeline (one lane per node, as in the paper's figure):@.%s@."
    (Checker.Timeline.render ~width:64 history);
  (match Checker.Feed.check ~mode:Obs.Monitor.Atomic ~n history with
  | Ok () -> Format.printf "Conditions (A0)-(A4): satisfied.@.@."
  | Error v ->
      Format.printf "Conditions violated: %a@." Obs.Monitor.pp_violation v);
  (match Checker.Linearize.linearize ~n history with
  | Ok order ->
      Format.printf "A linearization L (legal + real-time checked):@.";
      Format.printf "  %s@." (Checker.Timeline.render_order order)
  | Error e -> Format.printf "No linearization: %s@." e);
  match Checker.Linearize.sequentialize ~n history with
  | Ok _ -> Format.printf "@.A sequentialization also exists (S ≃ H).@."
  | Error e -> Format.printf "@.No sequentialization: %s@." e

let fig1_cmd =
  Cmd.v (Cmd.info "fig1" ~doc:"Replay the paper's Figure 1 worked example.")
    Term.(const fig1_impl $ const ())

(* ---- fig2: one-shot ASO worked example ------------------------------ *)

let fig2_impl () =
  Format.printf "Figure 2 — one-shot ASO: views, EQ predicate, bases.@.@.";
  let n = 3 and f = 1 in
  let engine = Sim.Engine.create ~seed:2L () in
  let t = Aso_core.One_shot.create engine ~n ~f ~delay:(Sim.Delay.fixed 1.0) in
  let show label view =
    Format.printf "  %-24s view %a@." label View.pp view
  in
  (* op1: scan by node 2 before any update — returns the empty base. *)
  Sim.Fiber.spawn engine (fun () ->
      let v = Aso_core.One_shot.scan_view t ~node:2 in
      show "op1 = SCAN() by 2" v);
  (* op2/op3: updates u, v by nodes 0 and 1 (the figure's nodes 1, 2). *)
  Sim.Fiber.spawn engine (fun () ->
      Sim.Fiber.sleep engine 0.5;
      Aso_core.One_shot.update t ~node:0 101;
      Format.printf "  op2 = UPDATE(101) by 0  done at t=%.1f@."
        (Sim.Engine.now engine);
      (* op4: scan by node 0 right after its update. *)
      let v = Aso_core.One_shot.scan_view t ~node:0 in
      show "op4 = SCAN() by 0" v);
  Sim.Fiber.spawn engine (fun () ->
      Sim.Fiber.sleep engine 0.5;
      Aso_core.One_shot.update t ~node:1 202;
      Format.printf "  op3 = UPDATE(202) by 1  done at t=%.1f@."
        (Sim.Engine.now engine);
      (* op5: node 1's own late update w, then op6: scan must wait for
         the EQ predicate before returning {u, v, w}. *)
      Sim.Fiber.sleep engine 2.0;
      let v = Aso_core.One_shot.scan_view t ~node:1 in
      show "op6 = SCAN() by 1" v);
  Sim.Engine.run_until_quiescent engine;
  Format.printf
    "@.All scan views are pairwise comparable (Lemma 1): the returned@.";
  Format.printf
    "equivalence sets embed into a single chain, which is what makes@.";
  Format.printf "the bases of the scans comparable (condition A1).@."

let fig2_cmd =
  Cmd.v (Cmd.info "fig2" ~doc:"Replay the paper's Figure 2 worked example.")
    Term.(const fig2_impl $ const ())

(* ---- sweep: the one CSV export ------------------------------------- *)

let sweep_impl (algo : Harness.Algo.t) csv =
  let header = [ "k_budget"; "k_actual"; "upd_worst_D"; "scan_worst_D"; "msgs" ] in
  let raw =
    List.map
      (fun k ->
        let r = Harness.Scenario.chain_storm ~algo ~k ~rounds:1 ~seed:424242L in
        [
          string_of_int k;
          string_of_int r.k;
          Printf.sprintf "%.2f" r.worst_update;
          Printf.sprintf "%.2f" r.worst_scan;
          string_of_int r.messages;
        ])
      [ 0; 2; 4; 8; 12; 18; 25; 33; 42 ]
  in
  if csv then Harness.Stats.csv ~header raw
  else
    Harness.Table.print
      ~title:(Printf.sprintf "latency vs k sweep (%s)" algo.name)
      ~header raw

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Worst-case latency as a function of the number of failures k. \
          --csv emits machine-readable output for plotting.")
    Term.(
      const sweep_impl $ algo_arg
      $ Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table."))

(* ---- trace: capture a structured execution trace --------------------- *)

let trace_impl (algo : Harness.Algo.t) n ops seed out =
  let f = Quorum.max_crash_faults n in
  let seed64 = Int64.of_int seed in
  let rng = Sim.Rng.create seed64 in
  let workload =
    Harness.Workload.random rng ~n ~ops_per_node:ops ~scan_fraction:0.5
      ~max_gap:4.0
  in
  let config =
    { Harness.Runner.n; f; delay = Harness.Runner.Fixed_d 1.0; seed = seed64 }
  in
  let tr = Obs.Trace.create () in
  let outcome =
    Harness.Runner.run ~workload_seed:seed64 ~trace:tr ~make:algo.make config
      ~workload ~adversary:Harness.Adversary.No_faults
  in
  let json = Obs.Trace.to_chrome ~process_name:algo.name tr in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Format.printf "algorithm   : %s (%s)@." outcome.algorithm algo.paper_row;
  Format.printf "nodes       : n=%d f=%d@." n f;
  Format.printf "operations  : %d completed@."
    (List.length (History.completed outcome.history));
  Format.printf "makespan    : %.1f D@." (outcome.end_time /. outcome.d);
  Format.printf "trace       : %d events -> %s (%d bytes)@."
    (Obs.Trace.length tr) out (String.length json);
  (match
     Option.bind
       (Obs.Metrics.find_samples outcome.metrics "aso.rounds_per_update")
       Obs.Metrics.summary
   with
  | Some s ->
      Format.printf "rounds/upd  : mean %.2f max %.0f@." s.Obs.Metrics.mean
        s.Obs.Metrics.max
  | None -> ());
  Format.printf
    "Open the file in https://ui.perfetto.dev (or chrome://tracing): one@.";
  Format.printf
    "track per node; UPDATE/SCAN spans decompose into protocol phases.@."

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload under the structured tracer and export a Chrome \
          trace-event JSON file viewable in Perfetto, with one track per \
          node and operation spans decomposed into protocol phases.")
    Term.(
      const trace_impl
      $ Arg.(
          value
          & pos 0 algo_conv Harness.Algo.eq_aso
          & info [] ~docv:"ALGO" ~doc:"Algorithm to trace (default eq-aso).")
      $ nodes_arg $ ops_arg $ seed_arg
      $ Arg.(
          value
          & opt string "trace.json"
          & info [ "o"; "out" ] ~docv:"FILE"
              ~doc:"Output file for the Chrome trace-event JSON."))

(* ---- causal: vector clocks + online monitor -------------------------- *)

let mutation_conv =
  Arg.enum
    (List.map (fun m -> (Mc.Mutants.to_string m, m)) Mc.Mutants.all)

let causal_impl (algo : Harness.Algo.t) n k ops seed out trace_out mutation
    faults =
  let f = Quorum.max_crash_faults n in
  if k > f then (
    Format.eprintf "error: k=%d exceeds f=%d for n=%d@." k f n;
    exit 1);
  let seed64 = Int64.of_int seed in
  let rng = Sim.Rng.create seed64 in
  let workload =
    Harness.Workload.random rng ~n ~ops_per_node:ops ~scan_fraction:0.5
      ~max_gap:4.0
  in
  let adversary =
    if k = 0 then Harness.Adversary.No_faults
    else Harness.Adversary.Crash_k_random { k; window = 10.0 }
  in
  let substrate = substrate_of faults in
  let config =
    { Harness.Runner.n; f; delay = Harness.Runner.Fixed_d 1.0; seed = seed64 }
  in
  let make =
    match mutation with None -> algo.make | Some m -> Mc.Mutants.make m
  in
  (match mutation with
  | Some m -> Format.printf "mutant armed: %s@." (Mc.Mutants.to_string m)
  | None -> ());
  let causal = Obs.Vclock.recorder ~n () in
  let monitor = Obs.Monitor.create ~n () in
  let tr = Option.map (fun _ -> Obs.Trace.create ()) trace_out in
  let write_logs () =
    let log = Obs.Vclock.to_shiviz causal in
    let oc = open_out out in
    output_string oc log;
    close_out oc;
    Format.printf "causal log  : %d events -> %s (ShiViz format)@."
      (Obs.Vclock.length causal) out;
    match (trace_out, tr) with
    | Some file, Some tr ->
        let json = Obs.Trace.to_chrome ~process_name:algo.name tr in
        let oc = open_out file in
        output_string oc json;
        close_out oc;
        Format.printf
          "trace       : %d events -> %s (flow arrows tie send to deliver)@."
          (Obs.Trace.length tr) file
    | _ -> ()
  in
  match
    Harness.Runner.run ~workload_seed:seed64 ?trace:tr ~substrate ~causal
      ~monitor ~watchdog:Harness.Runner.default_watchdog ~make config
      ~workload ~adversary
  with
  | outcome ->
      write_logs ();
      Format.printf "algorithm   : %s (%s)@." outcome.algorithm algo.paper_row;
      Format.printf "operations  : %d completed, %d pending@."
        (List.length (History.completed outcome.history))
        (List.length (History.pending outcome.history));
      Format.printf "monitor     : %d event(s) consumed, %d scan(s) checked, \
                     no violation@."
        (Obs.Monitor.events_seen monitor)
        (Obs.Monitor.scans_checked monitor);
      let label = Checker.Batch.label algo.consistency in
      (match Checker.Batch.check algo.consistency outcome.history with
      | Ok () -> Format.printf "history     : %s (batch-checked)@." label
      | Error e ->
          Format.printf "history     : NOT %s — %s@." label e;
          exit 1)
  | exception Harness.Runner.Monitor_violation c ->
      write_logs ();
      Format.printf
        "ONLINE VIOLATION caught mid-run after %d delivered message(s):@."
        c.delivered;
      Format.printf "  %a@." Obs.Monitor.pp_violation c.violation;
      Format.printf "provenance  : %d causal event(s) in the violating \
                     node's cone:@."
        (List.length c.slice);
      List.iter (fun ev -> Format.printf "  %a@." Obs.Vclock.pp_event ev)
        c.slice;
      exit 1
  | exception Harness.Runner.Stuck msg ->
      write_logs ();
      Format.printf "LIVENESS: %s@." msg;
      exit 1

let causal_cmd =
  Cmd.v
    (Cmd.info "causal"
       ~doc:
         "Run a workload with vector-clock stamping and the online \
          (A1)-(A4) monitor attached. Writes a ShiViz-compatible causal \
          log; $(b,--trace) also exports a Perfetto trace whose flow \
          arrows tie each send to its delivery. Exits non-zero when the \
          monitor catches a violation mid-run, printing the causal \
          provenance slice.")
    Term.(
      const causal_impl
      $ Arg.(
          value
          & pos 0 algo_conv Harness.Algo.eq_aso
          & info [] ~docv:"ALGO" ~doc:"Algorithm to run (default eq-aso).")
      $ nodes_arg $ crashes_arg $ ops_arg $ seed_arg
      $ Arg.(
          value
          & opt string "causal.log"
          & info [ "o"; "out" ] ~docv:"FILE"
              ~doc:"Output file for the ShiViz causal log.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "trace" ] ~docv:"OUT"
              ~doc:
                "Also export a Chrome trace-event JSON with send-deliver \
                 flow events.")
      $ Arg.(
          value
          & opt (some mutation_conv) None
          & info [ "mutate" ] ~docv:"MUTANT"
              ~doc:
                "Arm a seeded eq-aso protocol bug so the monitor has \
                 something to catch.")
      $ faults_term ())

(* ---- chaos: lossy substrate, partitions, chaos sweep ----------------- *)

let chaos_impl (algo : Harness.Algo.t) n k ops seed all faults part_span =
  let seed64 = Int64.of_int seed in
  let algos = if all then Harness.Algo.all else [ algo ] in
  Format.printf
    "Chaos: unmodified algorithms over the lossy link + reliable transport@.";
  Format.printf
    "(drop/dup/reorder i.i.d. per packet; partition over [2 D, %g D] heals;@."
    (2.0 +. part_span);
  Format.printf
    "%d random crash(es); history checked; watchdog budget %g D).@.@." k
    Harness.Runner.default_watchdog.budget;
  let rows =
    List.map
      (fun algo ->
        Harness.Scenario.chaos_cells
          (Harness.Scenario.chaos ~algo ~n ~k ~faults ~part_span
             ~ops_per_node:ops ~seed:seed64))
      algos
  in
  Harness.Table.print
    ~title:
      (Printf.sprintf "Chaos runs (n=%d, drop=%.2f, partition %g D)" n
         faults.drop part_span)
    ~header:Harness.Scenario.chaos_header rows

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run algorithms over the lossy substrate: packet loss, \
          duplication, reordering, a healing partition and random \
          crashes, with every history checked and a liveness watchdog.")
    Term.(
      const chaos_impl $ algo_arg $ nodes_arg
      $ Arg.(value & opt int 1 & info [ "k"; "crashes" ] ~docv:"K")
      $ ops_arg $ seed_arg
      $ Arg.(
          value & flag
          & info [ "all" ] ~doc:"Run every algorithm, not just --algo.")
      $ faults_term ~default:{ drop = 0.2; dup = 0.1; reorder = 0.1 } ()
      $ Arg.(
          value & opt float 4.0
          & info [ "partition" ] ~docv:"SPAN"
              ~doc:"Partition duration in D (0 disables it)."))

(* ---- fuzz: randomized verification campaign -------------------------- *)

let fuzz_impl runs seed all chaos =
  let algos = if all then Harness.Algo.all else [ Harness.Algo.eq_aso ] in
  let campaign = if chaos then Harness.Campaign.chaos else Harness.Campaign.run in
  let report = campaign ~algos ~runs ~seed:(Int64.of_int seed) in
  Format.printf "%a@." Harness.Campaign.pp report;
  if report.failures <> [] then exit 1

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Randomized verification campaign: random configurations, random \
          adversaries, every history checked. Non-zero exit on any \
          violation.")
    Term.(
      const fuzz_impl
      $ Arg.(value & opt int 25 & info [ "runs" ] ~docv:"N")
      $ seed_arg
      $ Arg.(
          value & flag
          & info [ "all" ] ~doc:"Fuzz every algorithm, not just eq-aso.")
      $ Arg.(
          value & flag
          & info [ "chaos" ]
              ~doc:
                "Fuzz on the lossy substrate, sweeping loss rates and \
                 partition durations."))

(* ---- explore / replay: model checking -------------------------------- *)

(* Both subcommands route through [Replay.spec]: explore builds the spec
   it would save, converts it with [Replay.to_sys], and explores that —
   so a saved counterexample replays the exact system that produced
   it. *)
let spec_of_args (algo : Harness.Algo.t) n ops seed scan_fraction max_gap
    two_op crash_nodes crash_bound restart_nodes restart_bound mutation faults
    monitor =
  (* Choice 0 is [-1] ("never crash") so the default schedule is the
     failure-free run; choices 1..bound crash before that engine step. *)
  let crash_steps = Array.append [| -1 |] (Array.init crash_bound Fun.id) in
  (* Restart candidates sit after the crash window so a chosen restart
     can actually find its node down ([explore] arms it behind an
     is_crashed guard either way). *)
  let restart_steps =
    Array.append [| -1 |] (Array.init restart_bound (fun i -> crash_bound + i))
  in
  {
    Mc.Replay.default_spec with
    algo = algo.name;
    n;
    f = Quorum.max_crash_faults n;
    seed = Int64.of_int seed;
    ops_per_node = ops;
    scan_fraction;
    max_gap;
    workload =
      (match two_op with
      | None -> Mc.Replay.Random
      | Some gap -> Mc.Replay.Pair { updater = 0; scanner = 1; gap });
    substrate = substrate_of faults;
    crashes = List.map (fun node -> (node, crash_steps)) crash_nodes;
    restarts = List.map (fun node -> (node, restart_steps)) restart_nodes;
    mutation;
    monitor;
  }

let explore_impl algo n ops seed scan_fraction max_gap two_op max_schedules
    depth random crash_nodes crash_bound restart_nodes restart_bound mutation
    faults monitor out =
  let spec =
    spec_of_args algo n ops seed scan_fraction max_gap two_op crash_nodes
      crash_bound restart_nodes restart_bound mutation faults monitor
  in
  match Mc.Replay.to_sys spec with
  | Error e ->
      Format.eprintf "error: %s@." e;
      exit 1
  | Ok sys ->
      let strategy =
        if random > 0 then
          Mc.Explore.Random { schedules = random; seed = spec.seed }
        else Mc.Explore.Dfs { max_schedules; max_depth = depth }
      in
      Format.printf "Exploring %s: n=%d f=%d, %d op(s)/node, %s@." spec.algo
        spec.n spec.f spec.ops_per_node
        (match strategy with
        | Mc.Explore.Dfs { max_schedules; max_depth } ->
            Printf.sprintf "bounded DFS (<= %d schedules, depth %d)"
              max_schedules max_depth
        | Mc.Explore.Random { schedules; _ } ->
            Printf.sprintf "random walk (%d schedules)" schedules);
      (match spec.mutation with
      | Some m ->
          Format.printf "mutant armed: %s@." (Mc.Mutants.to_string m)
      | None -> ());
      let report = Mc.Explore.explore sys strategy in
      Format.printf "%a@." Mc.Explore.pp_report report;
      (match report.violation with
      | None -> ()
      | Some v ->
          let note =
            match String.index_opt v.message '\n' with
            | None -> v.message
            | Some i -> String.sub v.message 0 i
          in
          Mc.Replay.save out { spec with choices = v.choices; note };
          Format.printf "replay file : %s@." out;
          Format.printf "reproduce   : aso_demo replay %s@." out;
          exit 1)

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Model-check an algorithm: enumerate schedules (event-queue \
          ties, link faults, crash points) with bounded DFS or random \
          sampling, checking every explored history. On a violation, \
          delta-debug the schedule to a minimal choice trace, write a \
          replay file, and exit non-zero.")
    Term.(
      const explore_impl
      $ Arg.(
          value
          & pos 0 algo_conv Harness.Algo.eq_aso
          & info [] ~docv:"ALGO" ~doc:"Algorithm to explore (default eq-aso).")
      $ Arg.(
          value & opt int 3
          & info [ "n"; "nodes" ] ~docv:"N" ~doc:"System size.")
      $ Arg.(
          value & opt int 2
          & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per node.")
      $ seed_arg $ scan_frac_arg
      $ Arg.(
          value & opt float 0.0
          & info [ "max-gap" ] ~docv:"G"
              ~doc:"Max think time between ops (in D).")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "two-op" ] ~docv:"GAP"
              ~doc:
                "Canonical 2-op workload: node 0 updates at time 0, node 1 \
                 scans after GAP (overrides --ops).")
      $ Arg.(
          value & opt int 2000
          & info [ "max-schedules" ] ~docv:"N"
              ~doc:"DFS schedule budget.")
      $ Arg.(
          value & opt int 40
          & info [ "depth" ] ~docv:"D"
              ~doc:"DFS branches only at the first D choice points.")
      $ Arg.(
          value & opt int 0
          & info [ "random" ] ~docv:"N"
              ~doc:"Use random-walk sampling with N schedules instead of \
                    DFS.")
      $ Arg.(
          value & opt_all int []
          & info [ "crash" ] ~docv:"NODE"
              ~doc:"Make NODE's crash point a choice (repeatable).")
      $ Arg.(
          value & opt int 8
          & info [ "crash-bound" ] ~docv:"B"
              ~doc:"Candidate crash step indices 0..B-1 per --crash node.")
      $ Arg.(
          value & opt_all int []
          & info [ "restart" ] ~docv:"NODE"
              ~doc:
                "Make NODE's restart point a choice (repeatable; pair with \
                 --crash NODE — a restart only fires if the node is down, \
                 and replays its write-ahead log before rejoining).")
      $ Arg.(
          value & opt int 8
          & info [ "restart-bound" ] ~docv:"B"
              ~doc:
                "Candidate restart step indices per --restart node (offset \
                 past the crash window).")
      $ Arg.(
          value
          & opt (some mutation_conv) None
          & info [ "mutate" ] ~docv:"MUTANT"
              ~doc:
                "Arm a seeded eq-aso protocol bug: quorum-off-by-one, \
                 skip-write-tag or stale-renewal.")
      $ faults_term ()
      $ Arg.(
          value & flag
          & info [ "monitor" ]
              ~doc:
                "Attach the online (A1)-(A4) monitor to every explored \
                 schedule: violations are caught mid-run (verdict \
                 \"online:\") and the replay file records the monitor so \
                 the catch reproduces.")
      $ Arg.(
          value
          & opt string "counterexample.replay"
          & info [ "o"; "out" ] ~docv:"FILE"
              ~doc:"Where to write the shrunk counterexample."))

let replay_impl file trace_out =
  match Mc.Replay.load file with
  | Error e ->
      Format.eprintf "error: %s@." e;
      exit 1
  | Ok spec -> (
      Format.printf "Replaying %s: %s n=%d f=%d, %d choice(s)%s@." file
        spec.algo spec.n spec.f
        (List.length spec.choices)
        (match spec.mutation with
        | Some m -> Printf.sprintf ", mutant %s" (Mc.Mutants.to_string m)
        | None -> "");
      if spec.note <> "" then Format.printf "note        : %s@." spec.note;
      let tr = Option.map (fun _ -> Obs.Trace.create ()) trace_out in
      match Mc.Replay.run ?trace:tr spec with
      | Error e ->
          Format.eprintf "error: %s@." e;
          exit 1
      | Ok run ->
          (* Beyond the forced prefix the schedule is all defaults —
             print only the choices that carry information. *)
          let forced =
            List.filteri
              (fun i _ -> i < List.length spec.choices)
              run.rec_trace
          in
          Format.printf "choice trace: %a@." Mc.Trace.pp forced;
          Format.printf "(plus %d default choice points)@."
            (Mc.Trace.length run.rec_trace - Mc.Trace.length forced);
          (match (trace_out, tr) with
          | Some out, Some tr ->
              let json = Obs.Trace.to_chrome ~process_name:spec.algo tr in
              let oc = open_out out in
              output_string oc json;
              close_out oc;
              Format.printf "trace       : %d events -> %s (open in \
                             https://ui.perfetto.dev)@."
                (Obs.Trace.length tr) out
          | _ -> ());
          (match run.verdict with
          | Ok () ->
              Format.printf
                "verdict     : history passes all checks (violation NOT \
                 reproduced)@."
          | Error msg ->
              Format.printf "verdict     : VIOLATION reproduced@.%s@." msg;
              exit 1))

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Deterministically re-run a counterexample written by $(b,explore) \
          and re-check its history; optionally export a Perfetto trace of \
          the violating schedule. Exits non-zero when the violation \
          reproduces.")
    Term.(
      const replay_impl
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"FILE" ~doc:"Replay file written by explore.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "trace" ] ~docv:"OUT"
              ~doc:"Also export a Chrome trace-event JSON of the replay."))

(* ---- serve: parallel runtime backend under closed-loop load -------- *)

(* ---- helpers shared by the wall-clock backends (rt, dist) ---------- *)

let wall_algo name =
  match Aso_core.Handle.algo_of_name name with
  | Some a -> a
  | None ->
      Format.eprintf
        "error: the rt and dist backends serve eq-aso and sso-fast-scan \
         (got %S)@."
        name;
      exit 1

(* f for n nodes, refusing deployments that tolerate no crash. *)
let wall_f n =
  if n < 3 then (
    Format.eprintf "error: need n >= 3 for crash tolerance (n > 2f)@.";
    exit 1);
  Quorum.max_crash_faults n

(* No plan for no victims; an invalid plan is a usage error. *)
let fault_plan ~n ~f ?restart_at ~crash_at victims =
  if victims = [] then None
  else
    try Some (Load.faults ~n ~f ?restart_at ~crash_at victims)
    with Invalid_argument e ->
      Format.eprintf "error: %s@." e;
      exit 1

(* The tail every wall-clock run prints: the checker's verdict on the
   finished history. *)
let print_verdict algo ~n history =
  let total_ops = List.length (History.ops history) in
  match Checker.Batch.verdict ~n (Aso_core.Handle.mode algo) history with
  | Ok label ->
      Format.printf "history     : %s, %d ops@." label total_ops;
      true
  | Error e ->
      Format.printf "history     : VIOLATION — %s@." e;
      false

let serve_impl algo_name n clients secs batch scan_fraction seed crash
    crash_restart wal_dir telemetry stats_every dump_dir mutation no_recorder
    no_online_check =
  let algo = wall_algo algo_name in
  let f = wall_f n in
  (* --crash-restart with no --crash means "crash one node and bring it
     back": crash at half the run, replay + rejoin at three quarters. *)
  let crash = if crash_restart && crash = 0 then 1 else crash in
  let faults =
    fault_plan ~n ~f ~crash_at:(secs /. 2.)
      ?restart_at:(if crash_restart then Some (secs *. 0.75) else None)
      (List.init crash Fun.id)
  in
  (match mutation with
  | Some m -> Format.printf "mutant armed: %s@." (Mc.Mutants.to_string m)
  | None -> ());
  let svc =
    Rt.Service.create ~batch ~recorder:(not no_recorder)
      ~online:(not no_online_check) ?mutation ?wal_dir ~algo ~n ~f ()
  in
  let deployment = Rt.Service.deployment svc in
  Rt.Service.start svc;
  (* Live exposition: the sampler thread and the telemetry endpoint
     observe the same registry the load driver's clients write into. *)
  let expo =
    Option.map
      (fun addr ->
        let srv =
          Rt.Expo_server.start ~addr (fun () ->
              Obs.Expo.to_prometheus (Rt.Service.stats_snapshot svc))
        in
        Format.printf "telemetry   : Prometheus text exposition on %s@."
          (Rt.Expo_server.addr srv);
        srv)
      telemetry
  in
  let sampler_stop = Atomic.make false in
  let sampler =
    match stats_every with
    | Some every when every > 0. ->
        Some
          (Thread.create
             (fun () ->
               let t0 = Unix.gettimeofday () in
               let last = ref 0 in
               while not (Atomic.get sampler_stop) do
                 Thread.delay every;
                 if not (Atomic.get sampler_stop) then begin
                   let snap = Rt.Service.stats_snapshot svc in
                   let count name =
                     Option.value (Obs.Metrics.find_count snap name) ~default:0
                   in
                   let ok = count "svc.updates_ok" + count "svc.scans_ok" in
                   let rate = float_of_int (ok - !last) /. every in
                   last := ok;
                   let q p =
                     match Obs.Metrics.find_dist snap "svc.update_latency_s" with
                     | Some d -> (
                         match Obs.Hdr.dist_quantile d p with
                         | Some v -> Printf.sprintf "%.2f" (v *. 1e3)
                         | None -> "-")
                     | None -> "-"
                   in
                   (* Monitor health inline: a stalled monitor domain
                      shows as growing lag and last-checked-op age. *)
                   let mon =
                     match Rt.Service.live_monitor svc with
                     | Some lm ->
                         Printf.sprintf "  mon lag %d (age %.0f ms)"
                           (Rt.Live_monitor.lag lm)
                           (Rt.Live_monitor.last_checked_age lm *. 1e3)
                     | None -> ""
                   in
                   Format.printf
                     "[%6.1fs] %7d ops  %8.0f ops/s  upd p50 %s ms  p99 %s \
                      ms  aborted %d%s@."
                     (Unix.gettimeofday () -. t0)
                     ok rate (q 0.5) (q 0.99) (count "svc.aborted") mon
                 end
               done)
             ())
    | _ -> None
  in
  (* Minor collections stop every domain, so their rate sets the rt
     tail; [quick_stat] sums all domains' allocation. *)
  let gc0 = Gc.quick_stat () in
  let report =
    Load.run ?faults deployment ~clients ~secs ~scan_fraction ~seed
  in
  let gc1 = Gc.quick_stat () in
  Rt.Service.stop svc;
  Atomic.set sampler_stop true;
  Option.iter Thread.join sampler;
  Option.iter Rt.Expo_server.stop expo;
  let history = Rt.Service.history svc in
  (* Forensics: on any failing exit, dump the flight recorder (merged
     rings as Perfetto-loadable Chrome JSON) and the final metrics
     snapshot, so the violating run can be examined after the process is
     gone — CI uploads exactly these files. *)
  let dump_file name =
    (try
       if not (Sys.file_exists dump_dir) then Sys.mkdir dump_dir 0o755
     with Sys_error _ -> ());
    Filename.concat dump_dir name
  in
  let dump_forensics reason =
    let stats_file = dump_file "flight-recorder.stats" in
    Obs.Expo.save stats_file
      (Obs.Metrics.sorted (Rt.Service.stats_snapshot svc));
    Format.printf "forensics   : metrics snapshot -> %s@." stats_file;
    (match Rt.Service.recorder svc with
    | Some rc ->
        let trace_file = dump_file "flight-recorder.json" in
        (* The rings plus the net.msg arrows drawn from the causal log
           (stamped whenever the live monitor is on). *)
        let tr =
          Rt.Telem.to_trace ?causal:(Rt.Net.causal (Rt.Service.net svc)) rc
        in
        let oc = open_out trace_file in
        output_string oc
          (Obs.Trace.to_chrome ~process_name:"aso-serve" tr);
        close_out oc;
        Format.printf
          "forensics   : flight recorder -> %s (%d events kept, %d \
           overwritten; load in Perfetto)@."
          trace_file
          (List.length (Obs.Recorder.events rc))
          (Obs.Recorder.total_overwritten rc)
    | None -> ());
    Format.printf "forensics   : dumped because %s@." reason
  in
  Format.printf "backend     : rt (%d node domains, %d client threads)@." n
    clients;
  Format.printf "algorithm   : %s@." (Aso_core.Handle.algo_name algo);
  Format.printf "%a@." Load.pp_report report;
  (let ops =
     float_of_int (max 1 (report.completed_updates + report.completed_scans))
   in
   let minors = gc1.minor_collections - gc0.minor_collections in
   Format.printf
     "gc          : %d minor collections, %.2f per 1000 ops, %.0f minor \
      words/op, %.0f promoted words/op@."
     minors
     (1000. *. float_of_int minors /. ops)
     ((gc1.minor_words -. gc0.minor_words) /. ops)
     ((gc1.promoted_words -. gc0.promoted_words) /. ops));
  Format.printf "pending     : %d@." (List.length (History.pending history));
  if batch then
    Format.printf "batching    : %d updates fused into group commits@."
      (Rt.Service.fused_updates svc);
  Format.printf "messages    : %d@."
    (Option.value ~default:0
       (Obs.Metrics.find_count (Rt.Service.stats_snapshot svc) "net.sent"));
  let recoveries = Rt.Service.recoveries svc in
  List.iter
    (fun (r : Rt.Service.recovery) ->
      Format.printf
        "recovered   : n%d — %d log record(s) replayed, rejoined in %.1f ms, \
         first op served at %.1f ms@."
        r.rec_node r.rec_replayed
        (r.rec_ready_after *. 1e3)
        (r.rec_first_op *. 1e3))
    recoveries;
  (* The live monitor's verdict outranks everything else: it halted
     intake mid-run, so the report above describes a truncated run. The
     dump gains the causal-cone slice next to the Perfetto trace (whose
     net.msg arrows are drawn from the same causal log). *)
  let live = Rt.Service.live_monitor svc in
  (match Option.bind live Rt.Live_monitor.tripped with
  | Some v ->
      Format.printf
        "history     : LIVE VIOLATION — caught mid-run at %.2f s of the \
         %.1f s budget@."
        v.Rt.Live_monitor.at secs;
      Format.printf "%a@." Rt.Live_monitor.pp_verdict v;
      let slice_file = dump_file "live-violation.txt" in
      let oc = open_out slice_file in
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "%a@." Rt.Live_monitor.pp_verdict v;
      close_out oc;
      Format.printf "forensics   : causal slice -> %s@." slice_file;
      dump_forensics "the live monitor tripped mid-run";
      exit 1
  | None ->
      Option.iter
        (fun lm ->
          Format.printf
            "monitor     : live — %d events checked, %d scans verified, no \
             violation@."
            (Rt.Live_monitor.events_checked lm)
            (Rt.Live_monitor.scans_verified lm))
        live);
  (if crash_restart && recoveries = [] then (
     Format.printf "history     : VIOLATION — no node completed recovery@.";
     dump_forensics "no node completed recovery";
     exit 1));
  if not (print_verdict algo ~n history) then (
    dump_forensics "the checker found a violation";
    exit 1)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run an algorithm on the parallel runtime backend (one OCaml \
          domain per node, lock-free mailboxes) under closed-loop client \
          load for a wall-clock duration; print ops/s and p50/p99 latency \
          and batch-check the captured real-time history. Serves eq-aso \
          (checked against A0-A4) and sso-fast-scan (checked against \
          S1-S3).")
    Term.(
      const serve_impl
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"ALGO" ~doc:"Algorithm: eq-aso or sso-fast-scan.")
      $ Arg.(
          value & opt int 4
          & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Protocol nodes (domains).")
      $ Arg.(
          value & opt int 8
          & info [ "c"; "clients" ] ~docv:"M"
              ~doc:"Closed-loop client threads.")
      $ Arg.(
          value & opt float 2.0
          & info [ "secs" ] ~docv:"S" ~doc:"Run duration, wall seconds.")
      $ Arg.(
          value & flag
          & info [ "batch" ]
              ~doc:
                "Group-commit same-node UPDATEs: queued updates coalesce \
                 into one protocol write of the last value.")
      $ scan_frac_arg $ seed_arg
      $ Arg.(
          value & opt int 0
          & info [ "crash" ] ~docv:"K"
              ~doc:"Crash K nodes (K <= f) halfway through the run.")
      $ Arg.(
          value & flag
          & info [ "crash-restart" ]
              ~doc:
                "Crash-restart chaos: crash the --crash nodes (default 1) \
                 halfway through, then at three quarters tear down their \
                 domains' remains, replay each write-ahead log, rejoin via \
                 a quorum state pull, and serve live traffic again — \
                 recovery times are reported and the post-restart history \
                 is checked.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "wal-dir" ] ~docv:"DIR"
              ~doc:
                "Directory for per-node write-ahead logs (node-N.wal); \
                 without it nodes log to durable memory.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "telemetry" ] ~docv:"ADDR"
              ~doc:
                "Serve live metrics (Prometheus text exposition) over \
                 HTTP on HOST:PORT for the duration of the run — scrape \
                 with curl or point a Prometheus at it.")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "stats-every" ] ~docv:"SECS"
              ~doc:
                "Print a one-line console stats sample (ops so far, \
                 ops/s, update p50/p99) every SECS seconds while the run \
                 is live.")
      $ Arg.(
          value & opt string "."
          & info [ "dump-dir" ] ~docv:"DIR"
              ~doc:
                "Where to write the forensics dump (flight-recorder.json \
                 + flight-recorder.stats) when the run exits non-zero \
                 (default: current directory).")
      $ Arg.(
          value
          & opt (some mutation_conv) None
          & info [ "mutate" ] ~docv:"MUTATION"
              ~doc:
                "Arm a seeded protocol bug on the deployment so the run \
                 is guaranteed to violate — demonstrates the checker and \
                 the forensics dump end-to-end. One of: quorum-off-by-one, \
                 skip-write-tag, stale-renewal.")
      $ Arg.(
          value & flag
          & info [ "no-recorder" ]
              ~doc:
                "Disable the per-node flight-recorder rings (the bench's \
                 recorder-overhead baseline).")
      $ Arg.(
          value & flag
          & info [ "no-online-check" ]
              ~doc:
                "Disable the live online monitor (on by default): no \
                 monitor domain, no causal message stamping, and \
                 violations surface only at the final batch check instead \
                 of halting the run the moment they happen."))

(* ---- recover: offline write-ahead-log replay ----------------------- *)

let recover_impl file =
  match Persist.Log.replay_file file with
  | Error e ->
      Format.eprintf "error: %s@." e;
      exit 1
  | Ok { records; tail } ->
      let entries =
        List.filter_map
          (function
            | Persist.Record.Entry { tag; writer; value } ->
                Some (tag, writer, value)
            | Persist.Record.Restart -> None)
          records
      in
      let epoch =
        List.length
          (List.filter (function Persist.Record.Restart -> true | _ -> false)
             records)
      in
      Format.printf "log         : %s@." file;
      Format.printf "records     : %d (%d mint(s), %d restart marker(s))@."
        (List.length records) (List.length entries) epoch;
      (* Restored state = the replayed kernel's view of this writer: the
         latest (highest-tag) surviving mint per writer id. *)
      let latest = Hashtbl.create 8 in
      List.iter
        (fun (tag, writer, value) ->
          match Hashtbl.find_opt latest writer with
          | Some (t, _) when t >= tag -> ()
          | _ -> Hashtbl.replace latest writer (tag, value))
        entries;
      let writers =
        List.sort Int.compare
          (Hashtbl.fold (fun w _ acc -> w :: acc) latest [])
      in
      List.iter
        (fun w ->
          let tag, value = Hashtbl.find latest w in
          Format.printf "restored    : writer %d -> value %d (tag %d)@." w
            value tag)
        writers;
      let max_tag =
        List.fold_left (fun acc (tag, _, _) -> max acc tag) 0 entries
      in
      Format.printf "max tag     : %d@." max_tag;
      (match tail with
      | Persist.Log.Clean -> Format.printf "tail        : clean@."
      | Torn { valid; dropped_bytes } ->
          Format.printf
            "tail        : TORN — %d trailing byte(s) discarded after \
             offset %d (longest valid prefix restored)@."
            dropped_bytes valid);
      if tail <> Persist.Log.Clean then exit 1

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Replay a node's write-ahead log offline: print the records that \
          survive (the longest valid prefix), the restored per-writer \
          state a rejoin would re-announce, the recovery epoch, and the \
          tail verdict. Exits non-zero if the log is torn or corrupt — \
          the prefix is still printed, exactly what a rejoin would \
          recover.")
    Term.(
      const recover_impl
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"LOG"
              ~doc:"Write-ahead log file (e.g. wal-dir/node-0.wal)."))

(* ---- stats: pretty-print a metrics snapshot dump ------------------- *)

let stats_impl file =
  match Obs.Expo.load file with
  | exception Failure e ->
      Format.eprintf "error: %s@." e;
      exit 1
  | exception Sys_error e ->
      Format.eprintf "error: %s@." e;
      exit 1
  | snap ->
      Format.printf "snapshot    : %s (%d metric(s))@." file
        (List.length snap);
      Format.printf "%a@." Obs.Metrics.pp_snapshot snap

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Pretty-print a metrics snapshot file (the \"aso-stats 1\" \
          format serve's forensics dump writes): counters, gauges, and \
          log-histogram quantiles (p50/p90/p99/p999). Exits non-zero on \
          a corrupt or truncated snapshot.")
    Term.(
      const stats_impl
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"FILE"
              ~doc:"Snapshot file, e.g. flight-recorder.stats."))

(* ---- dist-node / dist-serve: multi-process socket backend ---------- *)

let dist_node_impl algo_name me peers f_opt wal recover telemetry faults
    seed =
  let algo = wall_algo algo_name in
  let eps =
    peers |> String.split_on_char ','
    |> List.map (fun s ->
           match Dist.Conn.endpoint_of_string (String.trim s) with
           | Ok ep -> ep
           | Error e ->
               Format.eprintf "error: %s@." e;
               exit 1)
    |> Array.of_list
  in
  let n = Array.length eps in
  if me < 0 || me >= n then (
    Format.eprintf "error: --me %d out of range for %d peers@." me n;
    exit 1);
  let f = Option.value f_opt ~default:(wall_f n) in
  let t =
    Dist.Node_main.start ?telemetry ~seed
      { Dist.Node_main.me; eps; f; algo; wal; recover; chaos = Some faults }
  in
  (* Graceful shutdown: SIGTERM/SIGINT stop the loop once the operation
     in flight completes, and the exit status is 0 — the supervisor
     tells this apart from a crash. *)
  let stop _ = Dist.Node_main.request_stop t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Dist.Node_main.run t;
  Dist.Node_main.shutdown t

let dist_node_cmd =
  Cmd.v
    (Cmd.info "dist-node"
       ~doc:
         "One protocol node as an OS process: listen on this node's \
          endpoint, dial the peers, run the algorithm over the socket \
          backend, and serve client update/scan requests on the same \
          listener. Normally spawned by dist-serve; runnable by hand for \
          a real multi-host deployment (tcp endpoints). With --wal every \
          mint is write-ahead logged; with --recover the node replays \
          the log and runs the rejoin protocol before serving. SIGTERM \
          exits cleanly after the in-flight operation.")
    Term.(
      const dist_node_impl
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"ALGO" ~doc:"Algorithm: eq-aso or sso-fast-scan.")
      $ Arg.(
          required
          & opt (some int) None
          & info [ "me" ] ~docv:"I" ~doc:"This node's id (index into --peers).")
      $ Arg.(
          required
          & opt (some string) None
          & info [ "peers" ] ~docv:"EPS"
              ~doc:
                "Comma-separated endpoints for all nodes, in id order \
                 (unix:PATH or tcp:HOST:PORT).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "f"; "faults" ] ~docv:"F"
              ~doc:"Crash-fault bound (default: max for n, n > 2f).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "wal" ] ~docv:"FILE" ~doc:"Write-ahead log path.")
      $ Arg.(
          value & flag
          & info [ "recover" ]
              ~doc:
                "Replay the WAL and run the rejoin protocol before \
                 serving (requires --wal).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "telemetry" ] ~docv:"ADDR"
              ~doc:
                "Serve this node's metrics (Prometheus text exposition) \
                 over HTTP on HOST:PORT.")
      $ faults_term () $ seed_arg)

let dist_serve_impl algo_name nodes clients secs kill dir tcp_base
    scan_fraction seed link_faults =
  let algo = wall_algo algo_name in
  let f = wall_f nodes in
  (* Kill the highest node ids: client c's home is node c mod n, so
     the low ids keep their load and the clients homed on a victim
     exercise failover and their return. *)
  let faults =
    fault_plan ~n:nodes ~f ~crash_at:(secs *. 0.5) ~restart_at:(secs *. 0.75)
      (List.init kill (fun j -> nodes - 1 - j))
  in
  Format.printf "backend     : dist (%d worker processes over %s)@." nodes
    (match tcp_base with
    | Some base -> Printf.sprintf "tcp 127.0.0.1:%d+" base
    | None -> "unix sockets");
  Format.printf "algorithm   : %s (f = %d)@."
    (Aso_core.Handle.algo_name algo) f;
  if link_faults <> Chan.no_faults then
    Format.printf "link faults : drop %.2f  dup %.2f  reorder %.2f@."
      link_faults.drop link_faults.dup link_faults.reorder;
  if kill > 0 then
    Format.printf
      "fault plan  : SIGKILL %d node(s) at half-time, respawn with \
       --recover at three-quarter time@."
      kill;
  let sup =
    Dist.Supervisor.start
      {
        Dist.Supervisor.algo;
        nodes;
        f;
        dir;
        tcp_base;
        link_faults;
        seed;
        worker_argv = [| Sys.executable_name; "dist-node" |];
      }
  in
  let report =
    Load.run ?faults
      (Dist.Supervisor.deployment sup)
      ~clients ~secs ~scan_fraction ~seed
  in
  let exits = Dist.Supervisor.stop sup in
  let recoveries = Dist.Supervisor.recoveries sup in
  Format.printf "%a@." Load.pp_report report;
  List.iter
    (fun (rc : Dist.Supervisor.recovery) ->
      Format.printf "recovered   : n%d served again %.2f s after respawn@."
        rc.rec_node rc.rec_ready_after)
    recoveries;
  (* Clean-exit discipline: the only tolerable non-zero exit is the
     SIGKILL we sent on purpose. Anything else is a worker crash, and a
     crash we did not schedule fails the run even if the history passes. *)
  let expected (x : Dist.Supervisor.node_exit) =
    match x.x_status with
    | Dist.Supervisor.Clean -> true
    | Signaled s -> s = Sys.sigkill && List.mem x.x_node report.crashed
    | Exited _ -> false
  in
  List.iter
    (fun (x : Dist.Supervisor.node_exit) ->
      Format.printf "node %d      : %a%s%s@." x.x_node Dist.Supervisor.pp_status
        x.x_status
        (if x.x_restarted then " [was killed and restarted]" else "")
        (if expected x then "" else " — UNEXPECTED"))
    (List.sort compare exits);
  let failed = ref (not (List.for_all expected exits)) in
  if kill > 0 && recoveries = [] then begin
    Format.printf "history     : VIOLATION — no killed node completed \
                   recovery@.";
    failed := true
  end;
  if not (print_verdict algo ~n:nodes (Dist.Supervisor.history sup)) then
    failed := true;
  if !failed then exit 1

let dist_serve_cmd =
  Cmd.v
    (Cmd.info "dist-serve"
       ~doc:
         "Run an algorithm across real OS processes: spawn N dist-node \
          workers talking over sockets, drive closed-loop client load \
          against them, optionally SIGKILL up to f workers mid-run and \
          respawn them through write-ahead-log recovery, then merge \
          every node's operation timestamps (shared CLOCK_MONOTONIC) \
          into one history and batch-check it (A0-A4 for eq-aso, S1-S3 \
          for sso-fast-scan). Exits non-zero on a violation, a missing \
          recovery, or an unscheduled worker death.")
    Term.(
      const dist_serve_impl
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"ALGO" ~doc:"Algorithm: eq-aso or sso-fast-scan.")
      $ Arg.(
          value & opt int 4
          & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Worker processes.")
      $ Arg.(
          value & opt int 8
          & info [ "c"; "clients" ] ~docv:"M"
              ~doc:"Closed-loop client threads.")
      $ Arg.(
          value & opt float 2.0
          & info [ "secs" ] ~docv:"S" ~doc:"Run duration, wall seconds.")
      $ Arg.(
          value & opt int 0
          & info [ "kill" ] ~docv:"K"
              ~doc:
                "SIGKILL K workers (K <= f) at half-time and respawn \
                 them with --recover at three-quarter time.")
      $ Arg.(
          value & opt string "dist-run"
          & info [ "dir" ] ~docv:"DIR"
              ~doc:
                "Run directory: unix sockets, per-node WALs and logs \
                 (created if missing).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "tcp-base" ] ~docv:"PORT"
              ~doc:
                "Use tcp 127.0.0.1 endpoints on PORT, PORT+1, ... \
                 instead of unix sockets.")
      $ scan_frac_arg $ seed_arg $ faults_term ())

(* The ONE subcommand table: the group's command list and the no-args /
   --help enumeration are both derived from it, so a new subcommand
   cannot appear in one and not the other (README's list mirrors
   [aso_demo --help]). *)
let subcommands =
  [
    (run_cmd, "random workload + check");
    (fig1_cmd, "worked example");
    (fig2_cmd, "worked example");
    (sweep_cmd, "latency sweeps");
    (trace_cmd, "Perfetto export");
    (causal_cmd, "vector-clock causal monitor");
    (chaos_cmd, "lossy-link adversary");
    (fuzz_cmd, "randomized schedule search");
    (explore_cmd, "bounded model checking");
    (replay_cmd, "counterexample replay");
    (serve_cmd, "parallel runtime backend under load, live telemetry");
    (dist_node_cmd, "one protocol node as an OS process");
    (dist_serve_cmd, "multi-process socket deployment with kill -9 chaos");
    (recover_cmd, "offline write-ahead-log replay");
    (stats_cmd, "pretty-print a metrics snapshot dump");
  ]

let main_cmd =
  let doc = "fault-tolerant snapshot objects in message-passing systems" in
  let man =
    [
      `S Manpage.s_description;
      `P
        (Printf.sprintf
           "Simulate, measure, model-check and serve the paper's snapshot \
            algorithms. Subcommands: %s. Run $(b,aso_demo COMMAND --help) \
            for details."
           (String.concat ", "
              (List.map
                 (fun (cmd, hook) ->
                   Printf.sprintf "$(b,%s) (%s)" (Cmd.name cmd) hook)
                 subcommands)));
    ]
  in
  Cmd.group
    (Cmd.info "aso_demo" ~version:"1.0.0" ~doc ~man)
    ~default:Term.(ret (const (`Help (`Pager, None))))
    (List.map fst subcommands)

let () = exit (Cmd.eval main_cmd)
