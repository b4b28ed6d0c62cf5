(* End-to-end tests of the core algorithms through the harness: every
   run is checked for linearizability (EQ-ASO) or sequential consistency
   (SSO) via the tight-conditions checker AND the explicit Steps I-II
   construction, plus liveness (the runner raises [Stuck] if an
   operation at a live node hangs). *)

let eq_aso_make engine ~n ~f ~delay =
  Aso_core.Eq_aso.instance (Aso_core.Eq_aso.create engine ~n ~f ~delay)

let sso_make engine ~n ~f ~delay =
  Aso_core.Sso.instance (Aso_core.Sso.create engine ~n ~f ~delay)

let run_checked ?workload_seed ~make ~expect config ~workload ~adversary () =
  let outcome =
    Harness.Runner.run ?workload_seed ~make config ~workload ~adversary
  in
  (match Checker.Batch.check expect outcome.history with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" outcome.algorithm e);
  outcome

let fixed = Harness.Runner.Fixed_d 1.0

let config ?(n = 5) ?(f = 2) ?(seed = 1L) ?(delay = fixed) () =
  { Harness.Runner.n; f; delay; seed }

(* --- EQ-ASO ------------------------------------------------------- *)

let test_single_update_scan () =
  let outcome =
    run_checked ~make:eq_aso_make ~expect:Obs.Monitor.Atomic (config ())
      ~workload:
        (Harness.Workload.updates_at_zero ~n:5 ~updaters:[ 0 ] ~scanner:(Some 1))
      ~adversary:Harness.Adversary.No_faults ()
  in
  (* The scan must observe the update or not depending on timing; here we
     only require that both completed and the history is linearizable;
     failure-free operations are constant time (well under 10 D). *)
  Alcotest.(check int) "two ops" 2
    (List.length (History.completed outcome.history));
  let worst =
    Harness.Runner.max_latency
      (Harness.Runner.update_latencies outcome
      @ Harness.Runner.scan_latencies outcome)
  in
  Alcotest.(check bool)
    (Printf.sprintf "constant time failure-free (got %.1f D)" worst)
    true (worst <= 10.0)

let test_scan_sees_completed_update () =
  (* Sequential: update finishes before the scan starts. *)
  let workload = Array.make 5 [] in
  workload.(0) <- [ { Harness.Workload.gap = 0.0; op = Harness.Workload.Update } ];
  workload.(1) <- [ { Harness.Workload.gap = 50.0; op = Harness.Workload.Scan } ];
  let outcome =
    run_checked ~make:eq_aso_make ~expect:Obs.Monitor.Atomic (config ()) ~workload
      ~adversary:Harness.Adversary.No_faults ()
  in
  let scan =
    List.find History.is_scan (History.completed outcome.history)
  in
  Alcotest.(check (option int)) "segment 0 has the value" (Some 1)
    (History.scan_result scan).(0)

let test_random_failure_free () =
  (* Many seeds, fixed worst-case delays. *)
  for seed = 1 to 10 do
    let rng = Sim.Rng.create (Int64.of_int (seed * 77)) in
    let workload =
      Harness.Workload.random rng ~n:5 ~ops_per_node:6 ~scan_fraction:0.4
        ~max_gap:3.0
    in
    ignore
      (run_checked
         ~make:eq_aso_make ~expect:Obs.Monitor.Atomic
         (config ~seed:(Int64.of_int seed) ())
         ~workload ~adversary:Harness.Adversary.No_faults ())
  done

let test_random_uniform_delays () =
  for seed = 1 to 10 do
    let rng = Sim.Rng.create (Int64.of_int (seed * 131)) in
    let workload =
      Harness.Workload.random rng ~n:6 ~ops_per_node:5 ~scan_fraction:0.5
        ~max_gap:2.0
    in
    ignore
      (run_checked ~make:eq_aso_make ~expect:Obs.Monitor.Atomic
         (config ~n:6 ~f:2 ~seed:(Int64.of_int seed)
            ~delay:(Harness.Runner.Uniform_d { lo = 0.05; hi = 1.0; d = 1.0 })
            ())
         ~workload ~adversary:Harness.Adversary.No_faults ())
  done

let test_random_crashes () =
  for seed = 1 to 10 do
    let rng = Sim.Rng.create (Int64.of_int (seed * 991)) in
    let workload =
      Harness.Workload.random rng ~n:7 ~ops_per_node:5 ~scan_fraction:0.4
        ~max_gap:4.0
    in
    let outcome =
      run_checked ~make:eq_aso_make ~expect:Obs.Monitor.Atomic
        ~workload_seed:(Int64.of_int (seed * 7))
        (config ~n:7 ~f:3 ~seed:(Int64.of_int seed) ())
        ~workload
        ~adversary:(Harness.Adversary.Crash_k_random { k = 3; window = 15.0 })
        ()
    in
    Alcotest.(check int) "three nodes crashed" 3 (List.length outcome.crashed)
  done

let test_crash_mid_broadcast_linearizable () =
  (* The updater crashes while sending its value to a single node; the
     value may or may not surface, but the history stays atomic. *)
  let workload =
    Harness.Workload.updates_at_zero ~n:5 ~updaters:[ 0 ]
      ~scanner:(Some 1)
  in
  let chain = { Harness.Adversary.updater = 0; relays = []; final = 2 } in
  let outcome =
    run_checked ~make:eq_aso_make ~expect:Obs.Monitor.Atomic (config ())
      ~workload
      ~adversary:(Harness.Adversary.Chains [ chain ])
      ()
  in
  Alcotest.(check (list int)) "updater crashed" [ 0 ] outcome.crashed

let test_failure_chain_scan_delayed_but_atomic () =
  let n = 16 and f = 7 and k = 6 in
  let scanner = 15 in
  let chains = Harness.Adversary.chains_for_budget ~n ~k ~scanner () in
  let updaters = List.map (fun c -> c.Harness.Adversary.updater) chains in
  let workload =
    Harness.Workload.updates_at_zero ~n ~updaters ~scanner:(Some scanner)
  in
  let outcome =
    run_checked ~make:eq_aso_make ~expect:Obs.Monitor.Atomic (config ~n ~f ())
      ~workload
      ~adversary:(Harness.Adversary.Chains chains)
      ()
  in
  let scan_lat = Harness.Runner.max_latency (Harness.Runner.scan_latencies outcome) in
  Alcotest.(check bool)
    (Printf.sprintf "scan terminated (%.1f D)" scan_lat)
    true (scan_lat > 0.0)

let test_concurrent_updates_same_segment_order () =
  (* Two sequential updates by the same node: a later scan must return
     the second value. *)
  let workload = Array.make 5 [] in
  workload.(2) <-
    [
      { Harness.Workload.gap = 0.0; op = Harness.Workload.Update };
      { gap = 0.0; op = Harness.Workload.Update };
    ];
  workload.(3) <- [ { gap = 60.0; op = Harness.Workload.Scan } ];
  let outcome =
    run_checked ~make:eq_aso_make ~expect:Obs.Monitor.Atomic (config ()) ~workload
      ~adversary:Harness.Adversary.No_faults ()
  in
  let scan = List.find History.is_scan (History.completed outcome.history) in
  Alcotest.(check (option int)) "second value wins" (Some 2)
    (History.scan_result scan).(2)

(* --- SSO ----------------------------------------------------------- *)

let test_sso_failure_free () =
  for seed = 1 to 10 do
    let rng = Sim.Rng.create (Int64.of_int (seed * 13)) in
    let workload =
      Harness.Workload.random rng ~n:5 ~ops_per_node:6 ~scan_fraction:0.5
        ~max_gap:3.0
    in
    ignore
      (run_checked ~make:sso_make ~expect:Obs.Monitor.Sequential
         (config ~seed:(Int64.of_int seed) ())
         ~workload ~adversary:Harness.Adversary.No_faults ())
  done

let test_sso_scan_is_local () =
  let outcome =
    run_checked ~make:sso_make ~expect:Obs.Monitor.Sequential (config ())
      ~workload:
        (Harness.Workload.random (Sim.Rng.create 5L) ~n:5 ~ops_per_node:4
           ~scan_fraction:0.5 ~max_gap:2.0)
      ~adversary:Harness.Adversary.No_faults ()
  in
  List.iter
    (fun lat -> Alcotest.(check (float 0.0)) "scan takes zero time" 0.0 lat)
    (Harness.Runner.scan_latencies outcome)

let test_sso_read_your_writes () =
  let workload = Array.make 5 [] in
  workload.(0) <-
    [
      { Harness.Workload.gap = 0.0; op = Harness.Workload.Update };
      { gap = 0.0; op = Harness.Workload.Scan };
    ];
  let outcome =
    run_checked ~make:sso_make ~expect:Obs.Monitor.Sequential (config ()) ~workload
      ~adversary:Harness.Adversary.No_faults ()
  in
  let scan = List.find History.is_scan (History.completed outcome.history) in
  Alcotest.(check (option int)) "own update visible" (Some 1)
    (History.scan_result scan).(0)

let test_sso_with_crashes () =
  for seed = 1 to 8 do
    let rng = Sim.Rng.create (Int64.of_int (seed * 463)) in
    let workload =
      Harness.Workload.random rng ~n:7 ~ops_per_node:4 ~scan_fraction:0.5
        ~max_gap:4.0
    in
    ignore
      (run_checked ~make:sso_make ~expect:Obs.Monitor.Sequential
         ~workload_seed:(Int64.of_int (seed * 3))
         (config ~n:7 ~f:3 ~seed:(Int64.of_int seed) ())
         ~workload
         ~adversary:(Harness.Adversary.Crash_k_random { k = 2; window = 12.0 })
         ())
  done

(* --- one-shot ASO (Figure 2) --------------------------------------- *)

let test_one_shot_figure2 () =
  (* Three nodes; nodes 1 and 2 update (u, v in the figure read as
     updates by nodes 1 and 2), node 0 updates later (w); scans observe
     comparable bases. We reproduce the structure: updates by all three
     nodes, concurrent scans, atomicity holds. *)
  let engine = Sim.Engine.create ~seed:3L () in
  let t =
    Aso_core.One_shot.create engine ~n:3 ~f:1 ~delay:(Sim.Delay.fixed 1.0)
  in
  let views = ref [] in
  Sim.Fiber.spawn engine (fun () ->
      Aso_core.One_shot.update t ~node:1 101;
      views := Aso_core.One_shot.scan_view t ~node:1 :: !views);
  Sim.Fiber.spawn engine (fun () ->
      Aso_core.One_shot.update t ~node:2 202;
      views := Aso_core.One_shot.scan_view t ~node:2 :: !views);
  Sim.Fiber.spawn engine (fun () ->
      Sim.Fiber.sleep engine 0.5;
      Aso_core.One_shot.update t ~node:0 3;
      views := Aso_core.One_shot.scan_view t ~node:0 :: !views);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "three scans" 3 (List.length !views);
  List.iter
    (fun v1 ->
      List.iter
        (fun v2 ->
          Alcotest.(check bool) "views pairwise comparable (Lemma 1)" true
            (View.comparable v1 v2))
        !views)
    !views

let test_one_shot_scan_must_wait () =
  (* Figure 2's op6: the scanner knows a value the quorum has not sent
     it yet, so EQ(V, i) is false and the scan blocks until the
     forwarding loop equalises. Deterministic construction: node 0's
     update is exposed only at node 4 (crash during the value
     broadcast); node 4 then scans while it alone knows the value. *)
  let engine = Sim.Engine.create ~seed:8L () in
  let t = Aso_core.One_shot.create engine ~n:5 ~f:2 ~delay:(Sim.Delay.fixed 1.0) in
  Sim.Network.crash_during_next_broadcast
    (Aso_core.One_shot.net t)
    0 ~deliver_to:[ 4 ];
  Sim.Fiber.spawn engine (fun () -> Aso_core.One_shot.update t ~node:0 101);
  let scan_end = ref nan in
  Sim.Fiber.spawn engine (fun () ->
      (* exposure reaches node 4 at t=1; scan at t=1.5: V[4][4]={u} but
         no live node has echoed it back yet *)
      Sim.Fiber.sleep engine 1.5;
      let view = Aso_core.One_shot.scan_view t ~node:4 in
      scan_end := Sim.Engine.now engine;
      Alcotest.(check int) "returns the exposed value" 1 (View.cardinal view));
  Sim.Engine.run_until_quiescent engine;
  (* node 4 forwards at 1, peers receive at 2, their forwards reach node
     4 at 3: the EQ predicate holds again exactly at t=3. *)
  Alcotest.(check (float 0.001)) "blocked until the echo returns" 3.0 !scan_end

let test_one_shot_empty_scan () =
  let engine = Sim.Engine.create () in
  let t =
    Aso_core.One_shot.create engine ~n:3 ~f:1 ~delay:(Sim.Delay.fixed 1.0)
  in
  let snap = ref [||] in
  Sim.Fiber.spawn engine (fun () -> snap := Aso_core.One_shot.scan t ~node:0);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "width 3" 3 (Array.length !snap);
  Array.iter
    (fun s -> Alcotest.(check (option int)) "all bottom" None s)
    !snap

let test_one_shot_double_update_rejected () =
  let engine = Sim.Engine.create () in
  let t =
    Aso_core.One_shot.create engine ~n:3 ~f:1 ~delay:(Sim.Delay.fixed 1.0)
  in
  let raised = ref false in
  Sim.Fiber.spawn engine (fun () ->
      Aso_core.One_shot.update t ~node:0 1;
      try Aso_core.One_shot.update t ~node:0 2
      with Invalid_argument _ -> raised := true);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "second update rejected" true !raised

(* --- lattice agreement --------------------------------------------- *)

let la_run ~n ~f ~proposals ~crash_after =
  let engine = Sim.Engine.create ~seed:9L () in
  let t =
    Aso_core.Lattice_agreement.create engine ~n ~f ~delay:(Sim.Delay.fixed 1.0)
  in
  let outputs = Array.make n None in
  List.iteri
    (fun node proposal ->
      Sim.Fiber.spawn engine (fun () ->
          let learned = Aso_core.Lattice_agreement.propose t ~node proposal in
          outputs.(node) <- Some learned))
    proposals;
  Option.iter
    (fun (time, node) ->
      Sim.Engine.schedule engine ~delay:time (fun () ->
          Sim.Network.crash (Aso_core.Lattice_agreement.net t) node))
    crash_after;
  Sim.Engine.run_until_quiescent engine;
  (t, outputs)

let test_la_validity_and_comparability () =
  let proposals = [ [ 1; 2 ]; [ 3 ]; [ 4; 5; 6 ]; [ 7 ]; [ 8 ] ] in
  let t, outputs = la_run ~n:5 ~f:2 ~proposals ~crash_after:None in
  let all = List.concat proposals in
  List.iteri
    (fun node proposal ->
      match outputs.(node) with
      | None -> Alcotest.failf "node %d did not decide" node
      | Some learned ->
          (* downward validity *)
          List.iter
            (fun v ->
              Alcotest.(check bool)
                (Printf.sprintf "node %d learned own %d" node v)
                true (List.mem v learned))
            proposal;
          (* upward validity *)
          List.iter
            (fun v ->
              Alcotest.(check bool) "learned only proposed values" true
                (List.mem v all))
            learned)
    proposals;
  (* comparability via decided views *)
  for i = 0 to 4 do
    for j = 0 to 4 do
      match
        ( Aso_core.Lattice_agreement.decided_view t ~node:i,
          Aso_core.Lattice_agreement.decided_view t ~node:j )
      with
      | Some vi, Some vj ->
          Alcotest.(check bool) "comparable outputs" true
            (View.comparable vi vj)
      | _ -> Alcotest.fail "missing decision"
    done
  done

let test_la_with_crash () =
  let proposals = [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ] ] in
  let _, outputs = la_run ~n:5 ~f:2 ~proposals ~crash_after:(Some (0.5, 4)) in
  (* The four survivors must all decide. *)
  for node = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d decided" node)
      true
      (outputs.(node) <> None)
  done

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "core.eq_aso",
      [
        case "single update + scan" test_single_update_scan;
        case "scan sees completed update" test_scan_sees_completed_update;
        case "random failure-free runs" test_random_failure_free;
        case "random uniform delays" test_random_uniform_delays;
        case "random crashes" test_random_crashes;
        case "crash mid-broadcast" test_crash_mid_broadcast_linearizable;
        case "failure chains delay but stay atomic"
          test_failure_chain_scan_delayed_but_atomic;
        case "same-segment ordering" test_concurrent_updates_same_segment_order;
      ] );
    ( "core.sso",
      [
        case "random failure-free runs" test_sso_failure_free;
        case "scan is local" test_sso_scan_is_local;
        case "read your writes" test_sso_read_your_writes;
        case "with crashes" test_sso_with_crashes;
      ] );
    ( "core.one_shot",
      [
        case "figure 2 comparability" test_one_shot_figure2;
        case "figure 2: op6 must wait" test_one_shot_scan_must_wait;
        case "empty scan" test_one_shot_empty_scan;
        case "double update rejected" test_one_shot_double_update_rejected;
      ] );
    ( "core.lattice_agreement",
      [
        case "validity and comparability" test_la_validity_and_comparability;
        case "decides despite crash" test_la_with_crash;
      ] );
  ]
