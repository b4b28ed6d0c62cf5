(* Model-checking layer: chooser neutrality (answering 0 everywhere is
   exactly the default schedule), bounded exhaustive exploration of the
   acceptance config, mutation sensitivity (each seeded bug is found,
   shrunk, and reproduced from its replay file), a crash-point sweep,
   replay determinism (qcheck), the shrinker, and replay-file
   round-trips. *)

let fixed_config n f = { Harness.Runner.n; f; delay = Fixed_d 1.0; seed = 42L }

let eq_aso = Harness.Algo.find "eq-aso"

let lossy drop =
  Sim.Network.Lossy { Chan.drop; dup = 0.0; reorder = 0.0 }

(* The three validated detection configs (see EXPERIMENTS.md): each
   mutant paired with the smallest scenario + strategy that exposes
   it. *)
let mutant_setup = function
  | Mc.Mutants.Skip_write_tag ->
      let spec =
        {
          Mc.Replay.default_spec with
          workload = Mc.Replay.Pair { updater = 0; scanner = 1; gap = 6.0 };
          mutation = Some Mc.Mutants.Skip_write_tag;
        }
      in
      (spec, Mc.Explore.Dfs { max_schedules = 2000; max_depth = 12 })
  | Mc.Mutants.Quorum_off_by_one ->
      let spec =
        {
          Mc.Replay.default_spec with
          workload = Mc.Replay.Pair { updater = 0; scanner = 1; gap = 2.5 };
          substrate = Mc.Replay.Lossy { drop = 0.3; dup = 0.0; reorder = 0.0 };
          mutation = Some Mc.Mutants.Quorum_off_by_one;
        }
      in
      (spec, Mc.Explore.Dfs { max_schedules = 2000; max_depth = 25 })
  | Mc.Mutants.Stale_renewal ->
      let u gap = { Harness.Workload.gap; op = Harness.Workload.Update } in
      let s gap = { Harness.Workload.gap; op = Harness.Workload.Scan } in
      let spec =
        {
          Mc.Replay.default_spec with
          workload =
            Mc.Replay.Steps [| [ u 3.0 ]; [ u 0.0; u 2.0 ]; [ s 10.0 ] |];
          substrate = Mc.Replay.Lossy { drop = 0.3; dup = 0.0; reorder = 0.0 };
          mutation = Some Mc.Mutants.Stale_renewal;
        }
      in
      (spec, Mc.Explore.Dfs { max_schedules = 2000; max_depth = 45 })

let sys_of_spec spec =
  match Mc.Replay.to_sys spec with
  | Ok sys -> sys
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Chooser neutrality: installing the controller with an empty forced
   prefix (it answers 0 at every choice point) must reproduce the plain
   runner execution exactly. *)

let test_empty_prefix_is_default () =
  let config = fixed_config 3 1 in
  let workload =
    Harness.Workload.updates_at_zero ~n:3 ~updaters:[ 0 ] ~scanner:(Some 1)
  in
  let sys = Mc.Explore.sys_of_algo ~config ~workload eq_aso in
  let controlled = Mc.Explore.run_choices sys [] in
  let plain =
    Harness.Runner.run ~make:eq_aso.make config ~workload
      ~adversary:Harness.Adversary.No_faults
  in
  let o =
    match controlled.outcome with
    | Some o -> o
    | None -> Alcotest.fail "controlled run died"
  in
  Alcotest.(check string)
    "identical history"
    (Format.asprintf "%a" History.pp plain.history)
    (Format.asprintf "%a" History.pp o.history);
  Alcotest.(check (option int))
    "identical engine step count"
    (Obs.Metrics.find_count plain.metrics "engine.steps")
    (Obs.Metrics.find_count o.metrics "engine.steps");
  Alcotest.(check int) "identical messages" plain.messages o.messages;
  match controlled.verdict with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("default schedule violates: " ^ e)

(* ------------------------------------------------------------------ *)
(* Acceptance: bounded-exhaustive exploration of the 3-node, 2-op
   config drains its frontier, reports schedule/prune counts, and every
   history passes the checkers (a violation would abort the loop). *)

let test_exhaustive_acceptance () =
  let config = fixed_config 3 1 in
  let workload =
    Harness.Workload.updates_at_zero ~n:3 ~updaters:[ 0 ] ~scanner:(Some 1)
  in
  let sys = Mc.Explore.sys_of_algo ~config ~workload eq_aso in
  let r =
    Mc.Explore.explore sys
      (Mc.Explore.Dfs { max_schedules = 100_000; max_depth = 12 })
  in
  Alcotest.(check bool) "no violation" true (r.violation = None);
  Alcotest.(check bool) "space exhausted" true r.exhausted;
  Alcotest.(check bool) "many schedules" true (r.schedules > 100);
  Alcotest.(check bool) "pruning engaged" true (r.pruned > 0)

(* ------------------------------------------------------------------ *)
(* Mutation sensitivity: bounded exploration must find each seeded bug,
   shrink it, and the serialized replay must reproduce it. *)

let check_mutant m () =
  let spec, strategy = mutant_setup m in
  let r = Mc.Explore.explore (sys_of_spec spec) strategy in
  match r.violation with
  | None ->
      Alcotest.failf "mutant %s not detected" (Mc.Mutants.to_string m)
  | Some v ->
      Alcotest.(check bool)
        "shrunk trace is minimal-looking (no trailing defaults)" true
        (v.choices = Mc.Trace.trim_choices v.choices);
      (* round-trip through the replay file and reproduce *)
      let file = Filename.temp_file "aso-mc" ".replay" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Mc.Replay.save file { spec with choices = v.choices; note = v.message };
          match Mc.Replay.load file with
          | Error e -> Alcotest.fail ("replay load: " ^ e)
          | Ok spec' -> (
              match Mc.Replay.run spec' with
              | Error e -> Alcotest.fail ("replay run: " ^ e)
              | Ok run -> (
                  match run.verdict with
                  | Error _ -> ()
                  | Ok () ->
                      Alcotest.fail "replay did not reproduce the violation")))

(* The same scenarios without the mutation must be clean — otherwise the
   suite would "detect" scheduler artefacts, not bugs. *)
let test_unmutated_control () =
  List.iter
    (fun m ->
      let spec, strategy = mutant_setup m in
      let r =
        Mc.Explore.explore (sys_of_spec { spec with mutation = None }) strategy
      in
      match r.violation with
      | None -> ()
      | Some v ->
          Alcotest.failf "unmutated %s scenario violated: %s"
            (Mc.Mutants.to_string m) v.message)
    Mc.Mutants.all

(* ------------------------------------------------------------------ *)
(* Crash-point sweep: crash one quorum member at every engine step index
   of the baseline execution; every resulting history must still satisfy
   the full checker battery (the explore loop runs it per schedule). *)

let test_crash_point_sweep () =
  let config = fixed_config 4 1 in
  let workload =
    Harness.Workload.updates_at_zero ~n:4 ~updaters:[ 0 ] ~scanner:(Some 1)
  in
  let sys0 = Mc.Explore.sys_of_algo ~config ~workload eq_aso in
  let base = Mc.Explore.run_choices sys0 [] in
  let steps =
    match base.outcome with
    | Some o -> (
        match Obs.Metrics.find_count o.metrics "engine.steps" with
        | Some s -> s
        | None -> Alcotest.fail "no engine.steps metric")
    | None -> Alcotest.fail "baseline run died"
  in
  (* index 0 = never crash, so the default schedule stays failure-free;
     indices 1..steps crash node 2 at engine step 0..steps-1. *)
  let candidates = Array.append [| -1 |] (Array.init steps Fun.id) in
  let sys =
    Mc.Explore.sys_of_algo ~crashes:[ (2, candidates) ] ~config ~workload
      eq_aso
  in
  let r =
    Mc.Explore.explore sys
      (Mc.Explore.Dfs { max_schedules = steps + 10; max_depth = 1 })
  in
  (match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "crash sweep violated: %s" v.message);
  Alcotest.(check int) "one schedule per crash point" (steps + 1) r.schedules;
  Alcotest.(check bool) "sweep exhausted" true r.exhausted

(* ------------------------------------------------------------------ *)
(* Replay determinism (qcheck): the same forced choices always give the
   same execution — history, verdict, engine step count, metrics. *)

let fingerprint (run : Mc.Explore.run) =
  let outcome =
    match run.outcome with
    | None -> "died"
    | Some o ->
        Format.asprintf "%a | steps=%s | %a" History.pp o.history
          (match Obs.Metrics.find_count o.metrics "engine.steps" with
          | Some s -> string_of_int s
          | None -> "?")
          Obs.Metrics.pp_snapshot o.metrics
  in
  let verdict =
    match run.verdict with Ok () -> "ok" | Error e -> "violation: " ^ e
  in
  outcome ^ " / " ^ verdict

let replay_determinism =
  QCheck.Test.make ~name:"replay determinism: same choices, same run"
    ~count:30
    QCheck.(list_of_size Gen.(int_range 0 8) (int_range 0 2))
    (fun cs ->
      let spec =
        {
          Mc.Replay.default_spec with
          workload = Mc.Replay.Pair { updater = 0; scanner = 1; gap = 2.5 };
          substrate = Mc.Replay.Lossy { drop = 0.3; dup = 0.0; reorder = 0.0 };
        }
      in
      let sys = sys_of_spec spec in
      let a = Mc.Explore.run_choices sys cs in
      let b = Mc.Explore.run_choices sys cs in
      String.equal (fingerprint a) (fingerprint b))

(* ------------------------------------------------------------------ *)
(* Shrinker unit tests on synthetic predicates. *)

let test_trim_choices () =
  Alcotest.(check (list int))
    "drops trailing zeros" [ 0; 1; 0; 2 ]
    (Mc.Trace.trim_choices [ 0; 1; 0; 2; 0; 0; 0 ]);
  Alcotest.(check (list int)) "all zeros" [] (Mc.Trace.trim_choices [ 0; 0 ]);
  Alcotest.(check (list int)) "empty" [] (Mc.Trace.trim_choices [])

let test_shrink_isolates_deviation () =
  (* violation depends only on position 5 holding exactly 2 *)
  let violates cs = List.nth_opt cs 5 = Some 2 in
  let shrunk, runs =
    Mc.Shrink.minimize ~violates [ 1; 1; 0; 0; 0; 2; 0; 1; 3 ]
  in
  Alcotest.(check (list int)) "only the essential deviation survives"
    [ 0; 0; 0; 0; 0; 2 ] shrunk;
  Alcotest.(check bool) "used some runs" true (runs > 0)

let test_shrink_lowers_values () =
  let violates cs =
    match List.nth_opt cs 2 with Some v -> v >= 1 | None -> false
  in
  let shrunk, _ = Mc.Shrink.minimize ~violates [ 0; 0; 3 ] in
  Alcotest.(check (list int)) "value lowered to the smallest violating"
    [ 0; 0; 1 ] shrunk

let test_shrink_respects_budget () =
  let calls = ref 0 in
  let violates cs =
    incr calls;
    List.exists (fun c -> c <> 0) cs
  in
  let _, runs =
    Mc.Shrink.minimize ~budget:10 ~violates (List.init 64 (fun i -> i mod 3))
  in
  Alcotest.(check bool) "stops at the budget" true (!calls <= 11 && runs <= 11)

(* ------------------------------------------------------------------ *)
(* Replay file round-trip: every field, including hand-crafted Steps
   workloads, lossy floats, crash candidates, mutation, and choices. *)

let test_replay_roundtrip () =
  let u gap = { Harness.Workload.gap; op = Harness.Workload.Update } in
  let s gap = { Harness.Workload.gap; op = Harness.Workload.Scan } in
  let spec =
    {
      Mc.Replay.algo = "eq-aso";
      n = 3;
      f = 1;
      seed = 7L;
      ops_per_node = 2;
      scan_fraction = 0.25;
      max_gap = 1.5;
      workload = Mc.Replay.Steps [| [ u 3.0 ]; [ u 0.0; u 2.0 ]; [ s 10.0 ] |];
      substrate = Mc.Replay.Lossy { drop = 0.3; dup = 0.1; reorder = 0.05 };
      crashes = [ (1, [| -1; 3; 17 |]); (2, [| -1 |]) ];
      restarts = [ (1, [| -1; 25 |]) ];
      mutation = Some Mc.Mutants.Stale_renewal;
      monitor = true;
      choices = [ 0; 0; 1; 2 ];
      note = "(A2) synthetic round-trip fixture";
    }
  in
  let file = Filename.temp_file "aso-mc" ".replay" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Mc.Replay.save file spec;
      match Mc.Replay.load file with
      | Error e -> Alcotest.fail ("load: " ^ e)
      | Ok spec' ->
          Alcotest.(check bool) "round-trips exactly" true (spec = spec'))

let test_replay_rejects_garbage () =
  let file = Filename.temp_file "aso-mc" ".replay" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "not a replay file\n";
      close_out oc;
      match Mc.Replay.load file with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted garbage")

let test_replay_unknown_algo () =
  let spec = { Mc.Replay.default_spec with algo = "no-such-algo" } in
  match Mc.Replay.to_sys spec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown algorithm"

(* ------------------------------------------------------------------ *)

let case name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f
let qcase t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "mc",
      [
        case "empty prefix = default schedule" test_empty_prefix_is_default;
        slow "exhaustive 3-node 2-op acceptance" test_exhaustive_acceptance;
        slow "crash-point sweep" test_crash_point_sweep;
        qcase replay_determinism;
      ] );
    ( "mc mutants",
      [
        slow "detects quorum-off-by-one"
          (check_mutant Mc.Mutants.Quorum_off_by_one);
        slow "detects skip-write-tag" (check_mutant Mc.Mutants.Skip_write_tag);
        slow "detects stale-renewal" (check_mutant Mc.Mutants.Stale_renewal);
        slow "unmutated scenarios are clean" test_unmutated_control;
      ] );
    ( "mc shrink+replay",
      [
        case "trim trailing zeros" test_trim_choices;
        case "shrink isolates the deviation" test_shrink_isolates_deviation;
        case "shrink lowers values" test_shrink_lowers_values;
        case "shrink respects its budget" test_shrink_respects_budget;
        case "replay file round-trip" test_replay_roundtrip;
        case "replay rejects garbage" test_replay_rejects_garbage;
        case "unknown algorithm is an error" test_replay_unknown_algo;
      ] );
  ]
