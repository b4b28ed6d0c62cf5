(* The two-layer network stack: the lossy/duplicating/reordering/
   partitionable link, the reliable-FIFO transport rebuilt on top of it,
   substrate equivalence at zero faults, crash composition, and the
   liveness watchdog. *)

let fixed = Sim.Delay.fixed 1.0

(* ---- link layer ------------------------------------------------------ *)

let test_link_zero_fault_fifo () =
  let engine = Sim.Engine.create ~seed:1L () in
  let link = Sim.Link.create engine ~n:2 ~delay:fixed in
  let got = ref [] in
  Sim.Link.set_handler link 1 (fun ~src:_ p ->
      got := (Sim.Engine.now engine, p) :: !got);
  for i = 0 to 4 do
    Sim.Link.send link ~src:0 ~dst:1 i
  done;
  Sim.Engine.run_until_quiescent engine;
  let got = List.rev !got in
  Alcotest.(check (list (pair (float 0.) int)))
    "in order, exactly at D"
    [ (1.0, 0); (1.0, 1); (1.0, 2); (1.0, 3); (1.0, 4) ]
    got;
  Alcotest.(check int) "nothing lost" 0 (Sim.Link.packets_lost link)

let test_link_drop_accounting () =
  let engine = Sim.Engine.create ~seed:2L () in
  let link =
    Sim.Link.create
      ~faults:{ Chan.drop = 0.5; dup = 0.; reorder = 0. }
      engine ~n:2 ~delay:fixed
  in
  let delivered = ref 0 in
  Sim.Link.set_handler link 1 (fun ~src:_ _ -> incr delivered);
  for i = 0 to 199 do
    Sim.Link.send link ~src:0 ~dst:1 i
  done;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "handler saw every surviving packet"
    (Sim.Link.packets_delivered link)
    !delivered;
  Alcotest.(check int) "sent = delivered + lost" 200
    (Sim.Link.packets_delivered link + Sim.Link.packets_lost link);
  Alcotest.(check bool) "some were actually lost" true
    (Sim.Link.packets_lost link > 0 && Sim.Link.packets_delivered link > 0)

let test_link_duplication () =
  let engine = Sim.Engine.create ~seed:3L () in
  let link =
    Sim.Link.create
      ~faults:{ Chan.drop = 0.; dup = 0.9; reorder = 0. }
      engine ~n:2 ~delay:fixed
  in
  let delivered = ref 0 in
  Sim.Link.set_handler link 1 (fun ~src:_ _ -> incr delivered);
  for i = 0 to 49 do
    Sim.Link.send link ~src:0 ~dst:1 i
  done;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "duplicates happened" true
    (Sim.Link.packets_duplicated link > 0);
  Alcotest.(check int) "every copy delivered"
    (50 + Sim.Link.packets_duplicated link)
    !delivered

let test_link_reordering () =
  let engine = Sim.Engine.create ~seed:4L () in
  let link =
    Sim.Link.create
      ~faults:{ Chan.drop = 0.; dup = 0.; reorder = 0.9 }
      engine ~n:2 ~delay:fixed
  in
  let got = ref [] in
  Sim.Link.set_handler link 1 (fun ~src:_ p -> got := p :: !got);
  for i = 0 to 49 do
    Sim.Link.send link ~src:0 ~dst:1 i
  done;
  Sim.Engine.run_until_quiescent engine;
  let got = List.rev !got in
  Alcotest.(check int) "all delivered" 50 (List.length got);
  Alcotest.(check bool) "reorder counter advanced" true
    (Sim.Link.packets_reordered link > 0);
  Alcotest.(check bool) "an overtake was observed" true
    (got <> List.sort Int.compare got)

let test_link_partition_and_heal () =
  let engine = Sim.Engine.create ~seed:5L () in
  let link = Sim.Link.create engine ~n:3 ~delay:fixed in
  let got = Array.make 3 [] in
  for i = 0 to 2 do
    Sim.Link.set_handler link i (fun ~src p -> got.(i) <- (src, p) :: got.(i))
  done;
  (* Nodes 0 and 1 grouped; node 2 unlisted forms its own group. *)
  Sim.Link.partition link [ [ 0; 1 ] ];
  Alcotest.(check bool) "same group reachable" true
    (Sim.Link.reachable link ~src:0 ~dst:1);
  Alcotest.(check bool) "cross group unreachable" false
    (Sim.Link.reachable link ~src:0 ~dst:2);
  Sim.Link.send link ~src:0 ~dst:1 10;
  Sim.Link.send link ~src:0 ~dst:2 20;
  Sim.Link.send link ~src:2 ~dst:2 30;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "one packet cut" 1 (Sim.Link.packets_cut link);
  Alcotest.(check (list (pair int int))) "same group delivered" [ (0, 10) ] got.(1);
  Alcotest.(check (list (pair int int))) "loopback immune" [ (2, 30) ] got.(2);
  Sim.Link.heal link;
  Sim.Link.send link ~src:0 ~dst:2 21;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check (list (pair int int)))
    "healed link delivers"
    [ (0, 21); (2, 30) ]
    got.(2)

let test_link_rejects_bad_faults () =
  let engine = Sim.Engine.create ~seed:6L () in
  Alcotest.check_raises "drop out of range"
    (Invalid_argument "Sim.Link: fault probabilities must lie in [0, 1)")
    (fun () ->
      ignore
        (Sim.Link.create
           ~faults:{ Chan.drop = 1.5; dup = 0.; reorder = 0. }
           engine ~n:2 ~delay:fixed))

(* ---- transport layer ------------------------------------------------- *)

let test_transport_zero_faults_no_retransmits () =
  let engine = Sim.Engine.create ~seed:7L () in
  let tr = Sim.Transport.create engine ~n:2 ~delay:fixed in
  let got = ref [] in
  Sim.Transport.set_handler tr 1 (fun ~src:_ m -> got := m :: !got);
  for i = 0 to 9 do
    Sim.Transport.send tr ~src:0 ~dst:1 i
  done;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check (list int)) "exact FIFO stream" (List.init 10 Fun.id)
    (List.rev !got);
  Alcotest.(check int) "no retransmissions at zero faults" 0
    (Sim.Transport.retransmits tr);
  Alcotest.(check int) "one ack per data packet" 10 (Sim.Transport.acks_sent tr)

let test_transport_reliable_under_faults () =
  (* Heavy chaos on every channel of a 3-node fabric: each destination
     must still see each source's exact sequence, in order, once. *)
  let engine = Sim.Engine.create ~seed:8L () in
  let tr =
    Sim.Transport.create
      ~faults:{ Chan.drop = 0.4; dup = 0.3; reorder = 0.3 }
      engine ~n:3 ~delay:fixed
  in
  let n = 3 in
  let got = Array.init n (fun _ -> Array.make n []) in
  for dst = 0 to n - 1 do
    Sim.Transport.set_handler tr dst (fun ~src m ->
        got.(dst).(src) <- m :: got.(dst).(src))
  done;
  let sent = Array.make_matrix n n [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        for i = 0 to 29 do
          let m = (100 * src) + (10 * dst) + i in
          sent.(src).(dst) <- m :: sent.(src).(dst);
          Sim.Transport.send tr ~src ~dst m
        done
    done
  done;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "loss actually exercised" true
    (Sim.Transport.retransmits tr > 0);
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        Alcotest.(check (list int))
          (Printf.sprintf "stream %d->%d intact" src dst)
          (List.rev sent.(src).(dst))
          (List.rev got.(dst).(src))
    done
  done

let test_transport_kill_cancels_retransmission () =
  let engine = Sim.Engine.create ~seed:9L () in
  let tr =
    Sim.Transport.create
      ~faults:{ Chan.drop = 0.95; dup = 0.; reorder = 0. }
      engine ~n:2 ~delay:fixed
  in
  Sim.Transport.set_handler tr 1 (fun ~src:_ _ -> ());
  let last_tx_from_0 = ref neg_infinity in
  Sim.Link.set_tracer (Sim.Transport.link tr) (function
    | Sim.Link.Wire_sent { src = 0; at; _ } -> last_tx_from_0 := at
    | _ -> ());
  Sim.Transport.send tr ~src:0 ~dst:1 42;
  (* Let a few retransmissions fire, then crash the sender. *)
  Sim.Engine.run ~until:9.0 engine;
  Alcotest.(check bool) "retransmissions were running" true
    (Sim.Transport.retransmits tr > 0);
  let kill_time = Sim.Engine.now engine in
  Sim.Transport.kill tr 0;
  (* Termination is itself the assertion: live timers would make this
     spin forever (they re-arm on every expiry). *)
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "dead node sent nothing afterwards" true
    (!last_tx_from_0 <= kill_time)

let test_transport_restart_fences_dead_incarnation () =
  (* Frames in both directions are on the wire (unacked, with
     duplicates and reorders) when node 1 dies; it restarts before any
     of them lands. The new incarnation and its peer must see exactly
     the post-restart streams: nothing of the dead incarnation, each
     new message once, in order. *)
  let engine = Sim.Engine.create ~seed:10L () in
  let tr =
    Sim.Transport.create
      ~faults:{ Chan.drop = 0.3; dup = 0.3; reorder = 0.3 }
      engine ~n:2 ~delay:fixed
  in
  let got = Array.make 2 [] in
  for i = 0 to 1 do
    Sim.Transport.set_handler tr i (fun ~src:_ m -> got.(i) <- m :: got.(i))
  done;
  let stream src base =
    List.iter
      (fun k -> Sim.Transport.send tr ~src ~dst:(1 - src) (base + k))
      (List.init 10 Fun.id)
  in
  stream 0 0;
  stream 1 100;
  Sim.Engine.run ~until:0.5 engine;
  Sim.Transport.kill tr 1;
  Sim.Engine.run ~until:0.7 engine;
  Sim.Transport.restart tr 1;
  stream 0 1000;
  stream 1 1100;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "the wire was faulty" true
    (Sim.Transport.retransmits tr > 0);
  Alcotest.(check (list int)) "restarted node: post-restart stream only"
    (List.init 10 (fun k -> 1000 + k))
    (List.rev got.(1));
  Alcotest.(check (list int)) "peer: the new incarnation's stream only"
    (List.init 10 (fun k -> 1100 + k))
    (List.rev got.(0))

(* qcheck: for a random fault mix (plus a healing mid-run partition),
   the transport delivers, per channel, a stream identical to what the
   ideal network delivers for the same send sequence. *)
let transport_matches_ideal_qcheck =
  let gen =
    QCheck.Gen.(
      let* drop = float_bound_inclusive 0.45 in
      let* dup = float_bound_inclusive 0.3 in
      let* reorder = float_bound_inclusive 0.3 in
      let* partition = bool in
      let* seed = pint in
      let* counts = list_size (int_range 1 6) (int_range 0 15) in
      return (drop, dup, reorder, partition, seed, counts))
  in
  let print (drop, dup, reorder, partition, seed, counts) =
    Printf.sprintf "drop=%.2f dup=%.2f reorder=%.2f partition=%b seed=%d [%s]"
      drop dup reorder partition seed
      (String.concat ";" (List.map string_of_int counts))
  in
  QCheck.Test.make ~name:"transport stream = ideal network stream" ~count:60
    (QCheck.make gen ~print)
    (fun (drop, dup, reorder, partition, seed, counts) ->
      let n = 3 in
      (* Sends: pair p of the round-robin (src,dst) enumeration gets
         counts[p] messages, all pushed at t=0 (FIFO pressure). *)
      let pairs =
        List.concat_map
          (fun src ->
            List.filter_map
              (fun dst -> if src <> dst then Some (src, dst) else None)
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      let plan =
        List.concat
          (List.mapi
             (fun p count ->
               let src, dst = List.nth pairs (p mod List.length pairs) in
               List.init count (fun i -> (src, dst, (1000 * p) + i)))
             counts)
      in
      let deliveries run =
        let got = Array.init n (fun _ -> Array.make n []) in
        run (fun ~src ~dst m -> got.(dst).(src) <- m :: got.(dst).(src));
        List.map
          (fun (src, dst) -> List.rev got.(dst).(src))
          pairs
      in
      let ideal =
        deliveries (fun record ->
            let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
            let net = Sim.Network.create engine ~n ~delay:fixed in
            for i = 0 to n - 1 do
              Sim.Network.set_handler net i (fun ~src m -> record ~src ~dst:i m)
            done;
            List.iter (fun (src, dst, m) -> Sim.Network.send net ~src ~dst m) plan;
            Sim.Engine.run_until_quiescent engine)
      in
      let lossy =
        deliveries (fun record ->
            let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
            let tr =
              Sim.Transport.create
                ~faults:{ Chan.drop; dup; reorder }
                engine ~n ~delay:fixed
            in
            for i = 0 to n - 1 do
              Sim.Transport.set_handler tr i (fun ~src m -> record ~src ~dst:i m)
            done;
            if partition then begin
              Sim.Engine.schedule engine ~delay:2.0 (fun () ->
                  Sim.Link.partition (Sim.Transport.link tr) [ [ 0 ]; [ 1; 2 ] ]);
              Sim.Engine.schedule engine ~delay:8.0 (fun () ->
                  Sim.Link.heal (Sim.Transport.link tr))
            end;
            List.iter
              (fun (src, dst, m) -> Sim.Transport.send tr ~src ~dst m)
              plan;
            Sim.Engine.run_until_quiescent engine)
      in
      ideal = lossy)

(* ---- substrate equivalence & crash composition ----------------------- *)

let run_eq_aso ?causal ?(adversary = Harness.Adversary.No_faults) ~substrate
    () =
  let config =
    { Harness.Runner.n = 5; f = 2; delay = Harness.Runner.Fixed_d 1.0;
      seed = 11L }
  in
  let workload = Harness.Workload.closed_loop ~n:5 ~rounds:2 in
  Harness.Runner.run ?causal ~substrate ~make:Harness.Algo.eq_aso.make config
    ~workload ~adversary

let test_zero_fault_substrates_equivalent () =
  (* A fault-free link draws no RNG and keeps the ideal FIFO clamp, so
     an unmodified algorithm must see the identical event schedule:
     same latencies, same logical message count, same makespan. *)
  let ideal = run_eq_aso ~substrate:Sim.Network.Ideal () in
  let lossy = run_eq_aso ~substrate:(Sim.Network.Lossy Sim.Link.no_faults) () in
  Alcotest.(check (list (float 0.)))
    "update latencies identical"
    (Harness.Runner.update_latencies ideal)
    (Harness.Runner.update_latencies lossy);
  Alcotest.(check (list (float 0.)))
    "scan latencies identical"
    (Harness.Runner.scan_latencies ideal)
    (Harness.Runner.scan_latencies lossy);
  Alcotest.(check int) "same logical messages" ideal.messages lossy.messages;
  Alcotest.(check int) "zero retransmissions" 0 lossy.net.retransmits;
  (* A crash-restart, the restart more than D after the crash, so no
     message is in flight across both. The restart sits off the integer
     grid of send times: a message sent to the dead node that landed at
     the very instant of the restart would reach the new incarnation on
     the ideal network, while the transport drops it at the door. Then
     the two stacks agree on every delivery — sender, time, message
     kind and the causal stamp it carried. *)
  let deliveries substrate =
    let causal = Obs.Vclock.recorder ~n:5 () in
    let (_ : Harness.Runner.outcome) =
      run_eq_aso ~causal ~substrate
        ~adversary:(Harness.Adversary.Crash_restart_at [ (2.5, 0, 5.5) ])
        ()
    in
    List.filter_map
      (fun (e : Obs.Vclock.event) ->
        match e.kind with
        | Obs.Vclock.Deliver { src } ->
            Some (e.node, src, e.at, e.label, Obs.Vclock.to_array e.vc)
        | _ -> None)
      (Obs.Vclock.events causal)
  in
  let ideal = deliveries Sim.Network.Ideal in
  Alcotest.(check bool) "restarted node received again" true
    (List.exists (fun (node, _, at, _, _) -> node = 0 && at > 5.5) ideal);
  Alcotest.(check bool) "same deliveries across a crash-restart" true
    (ideal = deliveries (Sim.Network.Lossy Sim.Link.no_faults))

let test_crash_during_broadcast_over_lossy () =
  (* Definition 11 over the lossy stack: the armed broadcast reaches at
     most [deliver_to], and after the crash no packet — fresh or
     retransmitted — leaves the dead node, so retransmission cannot
     widen the broadcast after the fact. *)
  let engine = Sim.Engine.create ~seed:12L () in
  let net =
    Sim.Network.create
      ~substrate:(Sim.Network.Lossy { Chan.drop = 0.3; dup = 0.; reorder = 0. })
      engine ~n:4 ~delay:fixed
  in
  let seen = Array.make 4 [] in
  for i = 0 to 3 do
    Sim.Network.set_handler net i (fun ~src:_ m -> seen.(i) <- m :: seen.(i))
  done;
  let last_tx_from_0 = ref neg_infinity in
  (match Sim.Network.transport net with
  | None -> Alcotest.fail "expected the lossy stack"
  | Some tr ->
      Sim.Link.set_tracer (Sim.Transport.link tr) (function
        | Sim.Link.Wire_sent { src = 0; at; _ } -> last_tx_from_0 := at
        | _ -> ()));
  Sim.Network.crash_during_next_broadcast_matching net 0
    ~match_:(fun m -> m = 42)
    ~deliver_to:[ 1 ];
  (* An innocent broadcast first: its copies sit unacknowledged in the
     transport when the crash lands, priming the retransmission timers
     the crash must cancel. *)
  Sim.Network.broadcast net ~src:0 7;
  Sim.Network.broadcast net ~src:0 42;
  Alcotest.(check bool) "node 0 crashed" true (Sim.Network.is_crashed net 0);
  let crash_time = Sim.Engine.now engine in
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "no transmission after the crash" true
    (!last_tx_from_0 <= crash_time);
  Alcotest.(check bool) "disallowed nodes never saw the value" true
    (not (List.mem 42 seen.(2)) && not (List.mem 42 seen.(3)))

let test_ideal_network_rejects_chaos_controls () =
  let engine = Sim.Engine.create ~seed:13L () in
  let net = Sim.Network.create engine ~n:3 ~delay:fixed in
  let expect_invalid name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "partition" (fun () -> Sim.Network.partition net [ [ 0 ] ]);
  expect_invalid "heal" (fun () -> Sim.Network.heal net);
  expect_invalid "set_link_faults" (fun () ->
      Sim.Network.set_link_faults net
        { Chan.drop = 0.1; dup = 0.; reorder = 0. })

(* ---- liveness watchdog ----------------------------------------------- *)

let test_watchdog_reports_unhealed_partition () =
  (* A partition that never heals starves the quorum; without the
     watchdog this run would never go quiescent (retransmission timers
     re-arm forever). The watchdog must turn it into [Stuck] carrying
     the pending operations and the transport state. *)
  let config =
    { Harness.Runner.n = 5; f = 2; delay = Harness.Runner.Fixed_d 1.0;
      seed = 14L }
  in
  let workload = Array.make 5 [] in
  workload.(0) <-
    [ { Harness.Workload.gap = 3.0; op = Harness.Workload.Update } ];
  match
    Harness.Runner.run
      ~substrate:(Sim.Network.Lossy Sim.Link.no_faults)
      ~watchdog:{ Harness.Runner.budget = 50.; trace = 8 }
      ~make:Harness.Algo.eq_aso.make config ~workload
      ~adversary:
        (Harness.Adversary.Partition
           { groups = [ [ 0 ]; [ 1; 2; 3; 4 ] ]; from_ = 0.0; until = 1e9 })
  with
  | _ -> Alcotest.fail "expected Runner.Stuck"
  | exception Harness.Runner.Stuck diagnostics ->
      let mentions affix =
        let n = String.length affix and m = String.length diagnostics in
        let rec at i = i + n <= m && (String.sub diagnostics i n = affix || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "names the watchdog" true
        (mentions "liveness watchdog");
      Alcotest.(check bool) "dumps pending operations" true
        (mentions "UPDATE");
      Alcotest.(check bool) "dumps transport state" true
        (mentions "partitioned")

let test_watchdog_quiet_on_healthy_run () =
  (* Same algorithm, partition heals: the watchdog must not fire and the
     run must verify. *)
  let config =
    { Harness.Runner.n = 5; f = 2; delay = Harness.Runner.Fixed_d 1.0;
      seed = 15L }
  in
  let workload = Harness.Workload.closed_loop ~n:5 ~rounds:1 in
  let outcome =
    Harness.Runner.run
      ~substrate:(Sim.Network.Lossy Sim.Link.no_faults)
      ~watchdog:Harness.Runner.default_watchdog
      ~make:Harness.Algo.eq_aso.make config ~workload
      ~adversary:
        (Harness.Adversary.Partition
           { groups = [ [ 0 ]; [ 1; 2; 3; 4 ] ]; from_ = 1.0; until = 6.0 })
  in
  Alcotest.(check (result unit string)) "linearizable" (Ok ())
    (Checker.Batch.check Obs.Monitor.Atomic outcome.history);
  Alcotest.(check bool) "partition visibly delayed traffic" true
    (outcome.net.wire_cut > 0)

(* ---- the full chaos gauntlet, every algorithm ------------------------ *)

let test_all_algorithms_survive_chaos () =
  List.iter
    (fun (algo : Harness.Algo.t) ->
      (* Scenario.chaos verifies the history at the algorithm's declared
         consistency level and raises on any violation or hang. *)
      let row =
        Harness.Scenario.chaos ~algo ~n:6 ~k:1
          ~faults:{ drop = 0.3; dup = 0.1; reorder = 0.1 }
          ~part_span:4.0 ~ops_per_node:3 ~seed:4242L
      in
      Alcotest.(check bool)
        (algo.name ^ ": operations completed")
        true (row.c_ops > 0);
      Alcotest.(check bool)
        (algo.name ^ ": loss forced retransmission work")
        true
        (row.overhead > 1.0))
    Harness.Algo.all

let qcase t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "link",
      [
        Alcotest.test_case "zero-fault FIFO at exact delay" `Quick
          test_link_zero_fault_fifo;
        Alcotest.test_case "drop accounting" `Quick test_link_drop_accounting;
        Alcotest.test_case "duplication" `Quick test_link_duplication;
        Alcotest.test_case "reordering" `Quick test_link_reordering;
        Alcotest.test_case "partition and heal" `Quick
          test_link_partition_and_heal;
        Alcotest.test_case "rejects bad fault rates" `Quick
          test_link_rejects_bad_faults;
      ] );
    ( "transport",
      [
        Alcotest.test_case "zero faults: FIFO, no retransmits" `Quick
          test_transport_zero_faults_no_retransmits;
        Alcotest.test_case "reliable FIFO under heavy faults" `Quick
          test_transport_reliable_under_faults;
        Alcotest.test_case "kill cancels retransmission" `Quick
          test_transport_kill_cancels_retransmission;
        Alcotest.test_case "restart fences off the dead incarnation" `Quick
          test_transport_restart_fences_dead_incarnation;
        qcase transport_matches_ideal_qcheck;
      ] );
    ( "substrate",
      [
        Alcotest.test_case "zero-fault stacks are schedule-equivalent" `Quick
          test_zero_fault_substrates_equivalent;
        Alcotest.test_case "crash-during-broadcast composes with loss" `Quick
          test_crash_during_broadcast_over_lossy;
        Alcotest.test_case "ideal network rejects chaos controls" `Quick
          test_ideal_network_rejects_chaos_controls;
      ] );
    ( "watchdog",
      [
        Alcotest.test_case "unhealed partition raises Stuck" `Quick
          test_watchdog_reports_unhealed_partition;
        Alcotest.test_case "healing partition stays quiet" `Quick
          test_watchdog_quiet_on_healthy_run;
      ] );
    ( "chaos",
      [
        Alcotest.test_case "all algorithms survive the gauntlet" `Slow
          test_all_algorithms_survive_chaos;
      ] );
  ]
