(* SSO-Fast-Scan in depth: view comparability and monotonicity, the
   same-update-cost claim, the staleness-vs-atomicity boundary (a
   history that is sequentially consistent but provably NOT
   linearizable), and the Byzantine SSO. *)

let fixed = Sim.Delay.fixed 1.0

let test_scan_views_comparable_everywhere () =
  (* Sample every node's scan view at many points in a contended run:
     all sampled views must embed into one chain. *)
  let engine = Sim.Engine.create ~seed:21L () in
  let t = Aso_core.Sso.create engine ~n:5 ~f:2 ~delay:fixed in
  let samples = ref [] in
  for node = 0 to 3 do
    Sim.Fiber.spawn engine (fun () ->
        for i = 1 to 4 do
          Aso_core.Sso.update t ~node ((100 * node) + i);
          samples := Aso_core.Sso.scan_view t ~node:4 :: !samples
        done)
  done;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "sixteen samples" 16 (List.length !samples);
  List.iter
    (fun v1 ->
      List.iter
        (fun v2 ->
          Alcotest.(check bool) "views comparable" true
            (View.comparable v1 v2))
        !samples)
    !samples

let test_scan_views_monotone_per_node () =
  let engine = Sim.Engine.create ~seed:22L () in
  let t = Aso_core.Sso.create engine ~n:4 ~f:1 ~delay:fixed in
  let series = ref [] in
  Sim.Fiber.spawn engine (fun () ->
      for i = 1 to 6 do
        Aso_core.Sso.update t ~node:0 i
      done);
  Sim.Fiber.spawn engine (fun () ->
      for _ = 1 to 10 do
        Sim.Fiber.sleep engine 2.0;
        series := Aso_core.Sso.scan_view t ~node:2 :: !series
      done);
  Sim.Engine.run_until_quiescent engine;
  let rec monotone = function
    | later :: (earlier :: _ as rest) ->
        View.subset earlier later && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone growth" true (monotone !series)

let test_update_cost_matches_eq_aso () =
  (* The paper: SSO has the same UPDATE time as EQ-ASO. Identical
     workload, identical seeds — identical update latencies. *)
  let latencies make =
    let workload = Harness.Workload.closed_loop ~n:5 ~rounds:3 in
    let outcome =
      Harness.Runner.run ~make
        { Harness.Runner.n = 5; f = 2; delay = Harness.Runner.Fixed_d 1.0;
          seed = 77L }
        ~workload ~adversary:Harness.Adversary.No_faults
    in
    Harness.Runner.update_latencies outcome
  in
  Alcotest.(check (list (float 0.001)))
    "same update latencies"
    (latencies Harness.Algo.eq_aso.make)
    (latencies Harness.Algo.sso.make)

let test_stale_scan_sequential_not_atomic () =
  (* The boundary the SSO trades away: an update completes at node 0;
     node 1 scans immediately after — before the goodLA announcement
     reaches it — and sees the old world. The recorded history violates
     (A2) but passes the sequential-consistency checker, and the
     exhaustive oracle agrees on both verdicts. *)
  let engine = Sim.Engine.create ~seed:23L () in
  let t = Aso_core.Sso.create engine ~n:3 ~f:1 ~delay:fixed in
  let history = History.create () in
  Sim.Fiber.spawn engine (fun () ->
      let op =
        History.begin_update history ~now:(Sim.Engine.now engine) ~node:0
          ~value:1
      in
      Aso_core.Sso.update t ~node:0 1;
      History.finish_update history ~now:(Sim.Engine.now engine) op;
      (* Scan at node 1 just after the update completed — strictly
         after in real time, but before the goodLA announcement (one
         message delay away) can have refreshed node 1's local view. *)
      Sim.Fiber.sleep engine 0.5;
      let sc =
        History.begin_scan history ~now:(Sim.Engine.now engine) ~node:1
      in
      let snap = Aso_core.Sso.scan t ~node:1 in
      History.finish_scan history ~now:(Sim.Engine.now engine) sc ~snap);
  Sim.Engine.run_until_quiescent engine;
  let atomic = Checker.Feed.check ~mode:Obs.Monitor.Atomic ~n:3 history in
  let sequential = Checker.Feed.check ~mode:Obs.Monitor.Sequential ~n:3 history in
  (match atomic with
  | Error v -> Alcotest.(check string) "A2 violated" "A2" v.condition
  | Ok () -> Alcotest.fail "expected staleness to break atomicity");
  Alcotest.(check bool) "sequentially consistent" true
    (Result.is_ok sequential);
  (* the independent oracle agrees on both verdicts *)
  Alcotest.(check bool) "oracle: not linearizable" false
    (Checker.Wg.linearizable ~n:3 history);
  Alcotest.(check bool) "oracle: sequentializable" true
    (Checker.Wg.equivalent_sequential ~n:3 history)

let test_empty_sso_scan () =
  let engine = Sim.Engine.create () in
  let t = Aso_core.Sso.create engine ~n:3 ~f:1 ~delay:fixed in
  let snap = Aso_core.Sso.scan t ~node:0 in
  Alcotest.(check int) "width" 3 (Array.length snap);
  Array.iter (fun s -> Alcotest.(check (option int)) "bottom" None s) snap

(* --- Byzantine SSO ---------------------------------------------------- *)

let test_byz_sso_read_your_writes () =
  let engine = Sim.Engine.create ~seed:24L () in
  let t = Byzantine.Byz_sso.create engine ~n:7 ~f:2 ~delay:fixed in
  Sim.Fiber.spawn engine (fun () ->
      Byzantine.Byz_sso.update t ~node:0 11;
      let snap = Byzantine.Byz_sso.scan t ~node:0 in
      Alcotest.(check (option int)) "own write visible" (Some 11) snap.(0));
  Sim.Engine.run_until_quiescent engine

let test_byz_sso_sequential_with_adversaries () =
  let engine = Sim.Engine.create ~seed:25L () in
  let t = Byzantine.Byz_sso.create engine ~n:7 ~f:2 ~delay:fixed in
  Byzantine.Behaviors.silent (Byzantine.Byz_sso.inner t) ~node:6;
  Byzantine.Behaviors.tag_flooder (Byzantine.Byz_sso.inner t) engine ~node:5
    ~bursts:3 ~gap:3.0;
  let history = History.create () in
  let next = ref 1 in
  for node = 0 to 3 do
    Sim.Fiber.spawn engine (fun () ->
        for _ = 1 to 2 do
          let v = !next in
          incr next;
          let op =
            History.begin_update history ~now:(Sim.Engine.now engine) ~node
              ~value:v
          in
          Byzantine.Byz_sso.update t ~node v;
          History.finish_update history ~now:(Sim.Engine.now engine) op;
          let sc =
            History.begin_scan history ~now:(Sim.Engine.now engine) ~node
          in
          let snap = Byzantine.Byz_sso.scan t ~node in
          History.finish_scan history ~now:(Sim.Engine.now engine) sc ~snap
        done)
  done;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "all ops done" 0
    (List.length (History.pending history));
  match Checker.Feed.check ~mode:Obs.Monitor.Sequential ~n:7 history with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "not sequentially consistent: %a"
        Obs.Monitor.pp_violation v

let test_byz_sso_refresh_pulls_remote () =
  let engine = Sim.Engine.create ~seed:26L () in
  let t = Byzantine.Byz_sso.create engine ~n:7 ~f:2 ~delay:fixed in
  Sim.Fiber.spawn engine (fun () -> Byzantine.Byz_sso.update t ~node:0 5);
  Sim.Fiber.spawn engine (fun () ->
      Sim.Fiber.sleep engine 40.0;
      (* without refresh node 3's local view may be empty *)
      Byzantine.Byz_sso.refresh t ~node:3;
      let snap = Byzantine.Byz_sso.scan t ~node:3 in
      Alcotest.(check (option int)) "refresh pulled the update" (Some 5)
        snap.(0));
  Sim.Engine.run_until_quiescent engine

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "core.sso_deep",
      [
        case "views comparable everywhere" test_scan_views_comparable_everywhere;
        case "views monotone per node" test_scan_views_monotone_per_node;
        case "update cost matches eq-aso" test_update_cost_matches_eq_aso;
        case "stale scan: sequential, not atomic"
          test_stale_scan_sequential_not_atomic;
        case "empty scan" test_empty_sso_scan;
      ] );
    ( "byzantine.sso",
      [
        case "read your writes" test_byz_sso_read_your_writes;
        case "sequential under adversaries"
          test_byz_sso_sequential_with_adversaries;
        case "refresh pulls remote" test_byz_sso_refresh_pulls_remote;
      ] );
  ]
