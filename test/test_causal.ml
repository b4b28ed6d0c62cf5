(* Causal-observability layer: vector-clock lattice laws (qcheck), the
   happened-before log against actual deliveries on both substrates, the
   ShiViz/Perfetto exports, the online monitor's per-condition checks,
   its agreement with the batch checker, the online-catch guarantee on
   the three seeded mutants (strictly earlier than the batch verdict,
   with a non-empty provenance slice), the monitor-on exhaustive
   zero-false-positive sweep, and deterministic metrics export order. *)

module V = Obs.Vclock
module M = Obs.Monitor

let eq_aso = Harness.Algo.find "eq-aso"

(* ---- vector-clock lattice laws (qcheck) ----------------------------- *)

let clocks_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    let clock = array_size (return n) (int_range 0 8) in
    triple clock clock clock)

let print_clocks (a, b, c) =
  let s arr =
    "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int arr)) ^ "]"
  in
  Printf.sprintf "(%s, %s, %s)" (s a) (s b) (s c)

let prop_join_laws =
  QCheck.Test.make ~name:"vclock join: commutative, associative, idempotent"
    ~count:300
    (QCheck.make clocks_gen ~print:print_clocks)
    (fun (a, b, c) ->
      let a = V.of_array a and b = V.of_array b and c = V.of_array c in
      V.equal (V.join a b) (V.join b a)
      && V.equal (V.join (V.join a b) c) (V.join a (V.join b c))
      && V.equal (V.join a a) a
      && V.leq a (V.join a b)
      && V.leq b (V.join a b))

let prop_leq_order =
  QCheck.Test.make ~name:"vclock leq: partial order, agrees with compare_vc"
    ~count:300
    (QCheck.make clocks_gen ~print:print_clocks)
    (fun (a, b, c) ->
      let a = V.of_array a and b = V.of_array b and c = V.of_array c in
      V.leq a a
      && ((not (V.leq a b && V.leq b a)) || V.equal a b)
      && ((not (V.leq a b && V.leq b c)) || V.leq a c)
      &&
      match V.compare_vc a b with
      | `Equal -> V.equal a b
      | `Before -> V.leq a b && not (V.equal a b)
      | `After -> V.leq b a && not (V.equal a b)
      | `Concurrent -> (not (V.leq a b)) && not (V.leq b a))

(* ---- the recorder against a real run -------------------------------- *)

let recorded_run ?(n = 4) ?(adversary = Harness.Adversary.No_faults)
    ~substrate seed =
  let config =
    { Harness.Runner.n; f = 1; delay = Harness.Runner.Fixed_d 1.0; seed }
  in
  let rng = Sim.Rng.create seed in
  let workload =
    Harness.Workload.random rng ~n ~ops_per_node:3 ~scan_fraction:0.5
      ~max_gap:2.0
  in
  let causal = V.recorder ~n () in
  let outcome =
    Harness.Runner.run ~workload_seed:seed ~substrate ~causal
      ~watchdog:Harness.Runner.default_watchdog ~make:eq_aso.make config
      ~workload ~adversary
  in
  (causal, outcome)

(* Every delivery is causally after its send (same flow id); no event
   happens before itself; a node's own component strictly increases
   along its timeline. *)
let check_hb_vs_delivery r =
  let evs = V.events r in
  Alcotest.(check bool) "log non-empty" true (evs <> []);
  let sends = Hashtbl.create 256 in
  List.iter
    (fun (ev : V.event) ->
      match ev.kind with
      | V.Send _ -> Hashtbl.replace sends ev.flow ev
      | _ -> ())
    evs;
  List.iter
    (fun (ev : V.event) ->
      Alcotest.(check bool) "irreflexive" false (V.happened_before ev ev);
      match ev.kind with
      | V.Deliver { src } -> (
          match Hashtbl.find_opt sends ev.flow with
          | None -> Alcotest.failf "delivery of unknown flow %d" ev.flow
          | Some s ->
              Alcotest.(check int) "flow src matches sender" src s.node;
              Alcotest.(check bool) "send happened-before its delivery" true
                (V.happened_before s ev))
      | _ -> ())
    evs;
  let last = Array.make (V.nodes r) (-1) in
  List.iter
    (fun (ev : V.event) ->
      let own = V.get ev.vc ev.node in
      Alcotest.(check bool) "own component strictly increases" true
        (own > last.(ev.node));
      last.(ev.node) <- own)
    evs

let test_hb_ideal () =
  let r, _ = recorded_run ~substrate:Sim.Network.Ideal 7L in
  check_hb_vs_delivery r

let test_hb_lossy () =
  let r, _ =
    recorded_run
      ~substrate:
        (Sim.Network.Lossy { Chan.drop = 0.2; dup = 0.1; reorder = 0.1 })
      7L
  in
  check_hb_vs_delivery r

(* Exact causality: happened-before computed in the test by
   reachability over the log's own graph — each node's events in the
   order it recorded them, plus an edge from each [Send] to the
   [Deliver] with the same flow id when both are in the log — must equal
   [happened_before] on the replayed clocks, for every ordered pair. A
   [Drop] (a delivery suppressed at a crashed node) is off the graph:
   it must carry exactly the clock of its node's previous event.
   Returns the number of events checked, drops included. *)
let check_exact_hb (log : V.event list) =
  let prev = Hashtbl.create 8 in
  List.iteri
    (fun k (ev : V.event) ->
      Alcotest.(check int) "idx is the position in the log" k ev.idx;
      match ev.kind with
      | V.Drop _ ->
          let before =
            Option.value ~default:(V.make (V.size ev.vc))
              (Hashtbl.find_opt prev ev.node)
          in
          if not (V.equal ev.vc before) then
            Alcotest.failf "drop #%d ticked or merged: %a after %a" ev.idx V.pp
              ev.vc V.pp before
      | _ -> Hashtbl.replace prev ev.node ev.vc)
    log;
  let evs =
    Array.of_list
      (List.filter
         (fun (ev : V.event) ->
           match ev.kind with V.Drop _ -> false | _ -> true)
         log)
  in
  let e = Array.length evs in
  let sent = Hashtbl.create 256 in
  Array.iter
    (fun (ev : V.event) ->
      match ev.kind with V.Send _ -> Hashtbl.replace sent ev.flow () | _ -> ())
    evs;
  let words = (e + 7) / 8 in
  let reach = Array.make e Bytes.empty in
  let last = Hashtbl.create 8 and send_at = Hashtbl.create 256 in
  Array.iteri
    (fun b (ev : V.event) ->
      let bits = Bytes.make words '\000' in
      let add p =
        for w = 0 to words - 1 do
          Bytes.set bits w
            (Char.chr
               (Char.code (Bytes.get bits w)
               lor Char.code (Bytes.get reach.(p) w)))
        done;
        Bytes.set bits (p / 8)
          (Char.chr (Char.code (Bytes.get bits (p / 8)) lor (1 lsl (p mod 8))))
      in
      Option.iter add (Hashtbl.find_opt last ev.node);
      (match ev.kind with
      | V.Deliver _ when Hashtbl.mem sent ev.flow -> (
          match Hashtbl.find_opt send_at ev.flow with
          | Some p -> add p
          | None -> Alcotest.failf "deliver #%d precedes its send" ev.idx)
      | V.Send _ -> Hashtbl.replace send_at ev.flow b
      | _ -> ());
      Hashtbl.replace last ev.node b;
      reach.(b) <- bits)
    evs;
  for b = 0 to e - 1 do
    for a = 0 to e - 1 do
      let reachable =
        Char.code (Bytes.get reach.(b) (a / 8)) land (1 lsl (a mod 8)) <> 0
      in
      if V.happened_before evs.(a) evs.(b) <> reachable then
        Alcotest.failf "#%d -> #%d: clocks say %b, the graph says %b"
          evs.(a).idx evs.(b).idx (not reachable) reachable
    done
  done;
  List.length log

let test_hb_exact_sim () =
  let drops = ref 0 in
  List.iter
    (fun (n, substrate, seed) ->
      (* One crash mid-run: deliveries to it become [Drop]s, the crash a
         [Local]. *)
      let adversary = Harness.Adversary.Crash_at [ (3.0, n - 1) ] in
      let r, _ = recorded_run ~n ~adversary ~substrate seed in
      let evs = V.events r in
      drops :=
        !drops
        + List.length
            (List.filter
               (fun (ev : V.event) ->
                 match ev.kind with V.Drop _ -> true | _ -> false)
               evs);
      Alcotest.(check int) "the whole run is in the log" (V.length r)
        (check_exact_hb evs))
    [
      (3, Sim.Network.Ideal, 1L);
      (4, Sim.Network.Ideal, 2L);
      (5, Sim.Network.Ideal, 3L);
      (3, Sim.Network.Lossy { Chan.drop = 0.2; dup = 0.1; reorder = 0.1 }, 4L);
      (4, Sim.Network.Lossy { Chan.drop = 0.2; dup = 0.1; reorder = 0.1 }, 5L);
      (5, Sim.Network.Lossy { Chan.drop = 0.2; dup = 0.1; reorder = 0.1 }, 6L);
    ];
  Alcotest.(check bool) "drops were exercised" true (!drops > 0)

(* The same on rt nodes (one domain each, real mailboxes) with a capped
   log: three tokens hop between the nodes, fanning out now and then,
   until 801 messages are delivered — far more than the 48 events each
   shard retains. Within the retained window the clocks must be exact
   for the window's graph. *)
let test_hb_exact_rt_window () =
  let n = 3 and cap = 48 in
  let vr = V.recorder ~cap ~n () in
  let t0 = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. t0 in
  let nodes = Array.init n Rt.Node.create in
  let delivered = Atomic.make 0 in
  (* Called on [src]'s domain only: its shard has one writer. *)
  let send ~src ~dst h =
    let flow = V.record_send vr ~src ~dst ~at:(now ()) () in
    let item = Rt.Node.Net { src; msg = h; flow } in
    ignore (Rt.Node.post nodes.(dst) item : bool)
  in
  Array.iteri
    (fun i nd ->
      Rt.Node.set_on_deliver nd (fun ~src flow ->
          V.record_deliver vr ~dst:i ~src ~flow ~at:(now ()) ());
      Rt.Node.set_handler nd (fun ~src:_ h ->
          Atomic.incr delivered;
          if h > 0 then begin
            send ~src:i ~dst:((i + h) mod n) (h - 1);
            if h mod 3 = 0 then send ~src:i ~dst:((i + 1) mod n) 0
          end))
    nodes;
  Array.iter Rt.Node.start nodes;
  Array.iteri
    (fun i nd ->
      ignore
        (Rt.Node.post nd
           (Rt.Node.Work (fun () -> send ~src:i ~dst:((i + 1) mod n) 200))
          : bool))
    nodes;
  (* per token: 201 hops plus 66 fan-outs *)
  let total = n * (201 + 66) in
  let deadline = Unix.gettimeofday () +. 20. in
  while Atomic.get delivered < total && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Array.iter (fun nd -> ignore (Rt.Node.post nd Rt.Node.Stop : bool)) nodes;
  Array.iter Rt.Node.join nodes;
  Alcotest.(check int) "every message delivered" total (Atomic.get delivered);
  Alcotest.(check int) "every send and delivery recorded" (2 * total)
    (V.length vr);
  Alcotest.(check int) "each shard retains its cap" (n * cap)
    (check_exact_hb (V.events vr))

(* The replay places a [Deliver] after its [Send] even when the times
   disagree (two hosts' clocks skewed), and then orders by time: node 1
   logs a local event at 0.5 and the delivery at 1.0 of a message node
   0 sent at 5.0. *)
let test_replay_orders_skewed_times () =
  let r = V.recorder ~n:2 () in
  let flow = V.record_send r ~src:0 ~dst:1 ~at:5.0 () in
  V.record_local r ~node:1 ~at:0.5 "boot";
  V.record_deliver r ~dst:1 ~src:0 ~flow ~at:1.0 ();
  let evs = V.events r in
  Alcotest.(check (list (pair int int)))
    "(node, flow) in replay order"
    [ (1, 0); (0, flow); (1, flow) ]
    (List.map (fun (ev : V.event) -> (ev.node, ev.flow)) evs);
  match evs with
  | [ _; snd; dlv ] ->
      Alcotest.(check bool) "send happened-before its delivery" true
        (V.happened_before snd dlv);
      Alcotest.(check (array int)) "the delivery merged the send's clock"
        [| 1; 2 |] (V.to_array dlv.vc)
  | _ -> Alcotest.fail "three events expected"

(* Reads racing a writer that laps a tiny capped shard: every event a
   read returns is whole (its time and flow id come from one record),
   and a read never fails when every slot it copied was overwritten. *)
let test_reads_race_lapping_writer () =
  let r = V.recorder ~cap:2 ~n:1 () in
  let per = 200_000 in
  let writer =
    Domain.spawn (fun () ->
        for k = 0 to per - 1 do
          ignore (V.record_send r ~src:0 ~dst:0 ~at:(float_of_int k) () : int)
        done)
  in
  let torn = ref 0 and seen = ref 0 in
  while V.length r < per do
    List.iter
      (fun (ev : V.event) ->
        incr seen;
        (* the k-th send of node 0 of 1 has flow k + 1 *)
        if ev.flow <> int_of_float ev.at + 1 then incr torn)
      (V.events r)
  done;
  Domain.join writer;
  Alcotest.(check int) "no torn event" 0 !torn;
  Alcotest.(check bool) "reads returned events" true (!seen > 0);
  Alcotest.(check int) "the shard keeps its cap" 2 (List.length (V.events r))

let test_slice_monotone () =
  let r, _ = recorded_run ~substrate:Sim.Network.Ideal 11L in
  let all_clock =
    List.fold_left
      (fun acc i -> V.join acc (V.clock r i))
      (V.make (V.nodes r))
      (List.init (V.nodes r) Fun.id)
  in
  let full = V.slice r ~vc:all_clock in
  let messages =
    List.filter
      (fun (ev : V.event) ->
        match ev.kind with V.Send _ | V.Deliver _ -> true | _ -> false)
      (V.events r)
  in
  Alcotest.(check int) "slice at the global join is every message event"
    (List.length messages) (List.length full);
  let part = V.slice r ~vc:(V.clock r 0) in
  Alcotest.(check bool) "smaller cone is a subset" true
    (List.for_all
       (fun (ev : V.event) ->
         List.exists (fun (e : V.event) -> e.idx = ev.idx) full)
       part);
  Alcotest.(check bool) "cone events are all causally below the clock" true
    (List.for_all
       (fun (ev : V.event) -> V.leq ev.vc (V.clock r 0))
       part)

let test_shiviz_export () =
  let r, _ = recorded_run ~substrate:Sim.Network.Ideal 3L in
  let log = V.to_shiviz r in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' log)
  in
  Alcotest.(check int) "one line per event" (V.length r) (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "host prefix" true
        (String.length line > 2 && line.[0] = 'n');
      let has sub =
        let n = String.length sub and m = String.length line in
        let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "clock object present" true (has " {");
      Alcotest.(check bool) "description present" true (has "} "))
    lines

let test_perfetto_flows () =
  let n = 3 in
  let config =
    { Harness.Runner.n; f = 1; delay = Harness.Runner.Fixed_d 1.0; seed = 5L }
  in
  let workload =
    Harness.Workload.updates_at_zero ~n ~updaters:[ 0 ] ~scanner:(Some 1)
  in
  let causal = V.recorder ~n () in
  let tr = Obs.Trace.create () in
  let _ =
    Harness.Runner.run ~trace:tr ~causal ~make:eq_aso.make config ~workload
      ~adversary:Harness.Adversary.No_faults
  in
  let json = Obs.Trace.to_chrome tr in
  let count sub =
    let n = String.length sub and m = String.length json in
    let c = ref 0 in
    for i = 0 to m - n do
      if String.sub json i n = sub then incr c
    done;
    !c
  in
  let starts = count "\"ph\":\"s\"" and ends = count "\"ph\":\"f\"" in
  Alcotest.(check bool) "flow starts present" true (starts > 0);
  Alcotest.(check bool) "flow ends present" true (ends > 0);
  Alcotest.(check bool) "no dangling flow ends" true (ends <= starts);
  Alcotest.(check int) "every terminus binds to its enclosing slice" ends
    (count "\"bp\":\"e\"")

(* ---- the online monitor, condition by condition --------------------- *)

let feed_all m evs =
  List.fold_left
    (fun acc ev -> match acc with Error _ -> acc | Ok () -> M.feed m ev)
    (Ok ()) evs

let expect_violation name cond evs =
  let m = M.create ~n:4 () in
  match feed_all m evs with
  | Ok () -> Alcotest.failf "%s: no violation" name
  | Error v -> Alcotest.(check string) (name ^ ": condition") cond v.condition

let u ~id ~node ~at v = M.Invoke { id; node; at; op = M.Update v }
let s ~id ~node ~at = M.Invoke { id; node; at; op = M.Scan }
let ru ~id ~at = M.Respond_update { id; at }
let rs ~id ~at snap = M.Respond_scan { id; at; snap }

let test_monitor_clean () =
  let m = M.create ~n:4 () in
  (match
     feed_all m
       [
         u ~id:1 ~node:0 ~at:0.0 10;
         s ~id:2 ~node:2 ~at:0.5;
         ru ~id:1 ~at:1.0;
         rs ~id:2 ~at:2.0 [| Some 10; None; None; None |];
         M.Rounds { id = 1; rounds = 3.0 };
         u ~id:3 ~node:1 ~at:2.5 20;
         ru ~id:3 ~at:3.5;
         s ~id:4 ~node:2 ~at:4.0;
         rs ~id:4 ~at:5.0 [| Some 10; Some 20; None; None |];
       ]
   with
  | Ok () -> ()
  | Error v -> Alcotest.failf "clean stream rejected: %a" M.pp_violation v);
  Alcotest.(check int) "events counted" 9 (M.events_seen m);
  Alcotest.(check int) "scans checked" 2 (M.scans_checked m);
  Alcotest.(check bool) "no violation recorded" true (M.violation m = None)

let test_monitor_wf () =
  expect_violation "time goes backwards" "wf"
    [ u ~id:1 ~node:0 ~at:5.0 1; u ~id:2 ~node:1 ~at:3.0 2 ];
  expect_violation "respond without invoke" "wf" [ ru ~id:99 ~at:1.0 ];
  expect_violation "duplicate op id" "wf"
    [ u ~id:1 ~node:0 ~at:0.0 1; ru ~id:1 ~at:1.0; u ~id:1 ~node:1 ~at:2.0 2 ];
  expect_violation "two outstanding ops on one node" "wf"
    [ u ~id:1 ~node:0 ~at:0.0 1; s ~id:2 ~node:0 ~at:0.5 ];
  expect_violation "invoke by a crashed node" "wf"
    [ M.Crash { node = 3; at = 0.0 }; u ~id:1 ~node:3 ~at:1.0 1 ];
  expect_violation "snap of the wrong width" "wf"
    [ s ~id:1 ~node:0 ~at:0.0; rs ~id:1 ~at:1.0 [| None; None |] ];
  expect_violation "scan response to an update" "wf"
    [
      u ~id:1 ~node:0 ~at:0.0 1;
      rs ~id:1 ~at:1.0 [| None; None; None; None |];
    ];
  expect_violation "duplicate written value" "wf"
    [ u ~id:1 ~node:0 ~at:0.0 7; ru ~id:1 ~at:1.0; u ~id:2 ~node:1 ~at:2.0 7 ]

let test_monitor_a0 () =
  expect_violation "unknown value" "A0"
    [
      s ~id:1 ~node:0 ~at:0.0;
      rs ~id:1 ~at:1.0 [| Some 99; None; None; None |];
    ];
  expect_violation "value in the wrong segment" "A0"
    [
      u ~id:1 ~node:0 ~at:0.0 7;
      ru ~id:1 ~at:1.0;
      s ~id:2 ~node:2 ~at:2.0;
      rs ~id:2 ~at:3.0 [| None; Some 7; None; None |];
    ]

let test_monitor_a1 () =
  (* Two concurrent updates, two concurrent scans each seeing only one:
     the bases {u1} and {u2} are incomparable. A2 stays quiet because
     neither update completed before either scan's invocation. *)
  expect_violation "incomparable bases" "A1"
    [
      u ~id:1 ~node:0 ~at:0.0 1;
      u ~id:2 ~node:1 ~at:0.0 2;
      s ~id:3 ~node:2 ~at:0.0;
      s ~id:4 ~node:3 ~at:0.0;
      ru ~id:1 ~at:1.0;
      ru ~id:2 ~at:1.0;
      rs ~id:3 ~at:2.0 [| Some 1; None; None; None |];
      rs ~id:4 ~at:2.0 [| None; Some 2; None; None |];
    ]

let test_monitor_a2 () =
  expect_violation "completed update missing from a later scan" "A2"
    [
      u ~id:1 ~node:0 ~at:0.0 1;
      ru ~id:1 ~at:1.0;
      s ~id:2 ~node:2 ~at:2.0;
      rs ~id:2 ~at:3.0 [| None; None; None; None |];
    ]

let test_monitor_a3 () =
  (* u1 never completes, so A2 cannot fire; the first scan sees it, the
     later (real-time ordered) scan does not: shrinking bases. *)
  expect_violation "scan bases shrink across real-time order" "A3"
    [
      u ~id:1 ~node:0 ~at:0.0 1;
      s ~id:2 ~node:2 ~at:0.0;
      rs ~id:2 ~at:1.0 [| Some 1; None; None; None |];
      s ~id:3 ~node:3 ~at:2.0;
      rs ~id:3 ~at:3.0 [| None; None; None; None |];
    ]

let test_monitor_a4 () =
  (* The scan (concurrent with everything) returns {u2} but not u1,
     although u1 responded before u2 was even invoked. *)
  expect_violation "base not closed under real-time predecessors" "A4"
    [
      s ~id:3 ~node:2 ~at:0.0;
      u ~id:1 ~node:0 ~at:0.0 1;
      ru ~id:1 ~at:1.0;
      u ~id:2 ~node:1 ~at:2.0 2;
      ru ~id:2 ~at:3.0;
      rs ~id:3 ~at:4.0 [| None; Some 2; None; None |];
    ]

let test_monitor_budget () =
  Alcotest.(check bool) "failure-free budget is the T2 cap" true
    (M.default_budget ~crashes:0 = 4.0);
  expect_violation "rounds over the failure-free budget" "budget"
    [ u ~id:1 ~node:0 ~at:0.0 1; ru ~id:1 ~at:1.0;
      M.Rounds { id = 1; rounds = 5.0 } ];
  (* with k = 4 crashes the budget loosens to 2*sqrt(4)+4 = 8 *)
  let m = M.create ~n:8 () in
  let crash node = M.Crash { node; at = 0.0 } in
  match
    feed_all m
      [
        crash 4; crash 5; crash 6; crash 7;
        u ~id:1 ~node:0 ~at:1.0 1;
        ru ~id:1 ~at:2.0;
        M.Rounds { id = 1; rounds = 7.5 };
      ]
  with
  | Ok () -> Alcotest.(check int) "crashes counted" 4 (M.crashes m)
  | Error v ->
      Alcotest.failf "budget should loosen with crashes: %a" M.pp_violation v

let test_monitor_sticky () =
  let m = M.create ~n:4 () in
  let bad = [ s ~id:1 ~node:0 ~at:0.0;
              rs ~id:1 ~at:1.0 [| Some 42; None; None; None |] ] in
  (match feed_all m bad with
  | Ok () -> Alcotest.fail "expected A0"
  | Error v -> Alcotest.(check string) "A0 fired" "A0" v.condition);
  let seen = M.events_seen m in
  match M.feed m (u ~id:2 ~node:1 ~at:2.0 1) with
  | Ok () -> Alcotest.fail "monitor not sticky"
  | Error v ->
      Alcotest.(check string) "same violation" "A0" v.condition;
      Alcotest.(check int) "stopped consuming" seen (M.events_seen m)

(* ---- feed: monitor vs the constructive witness ----------------------- *)

let test_feed_agrees_on_correct_runs () =
  List.iter
    (fun seed ->
      let _, outcome = recorded_run ~substrate:Sim.Network.Ideal seed in
      (match Checker.Linearize.linearize ~n:4 outcome.history with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "no linearization of a correct run (seed %Ld): %s"
            seed e);
      match Checker.Feed.check ~mode:Obs.Monitor.Atomic ~n:4 outcome.history with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "monitor rejected a correct run (seed %Ld): %a" seed
            M.pp_violation v)
    [ 1L; 2L; 3L; 4L ]

(* ---- the three mutants: online catch beats the batch checker -------- *)

(* Same validated detection configs as test_mc.ml. *)
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

let check_online_catch m () =
  let spec, strategy = mutant_setup m in
  let sys =
    match Mc.Replay.to_sys spec with Ok s -> s | Error e -> Alcotest.fail e
  in
  let r = Mc.Explore.explore sys strategy in
  let v =
    match r.violation with
    | Some v -> v
    | None ->
        Alcotest.failf "mutant %s not detected" (Mc.Mutants.to_string m)
  in
  (* The violating schedule, run to completion without the monitor:
     batch-check territory. *)
  let off = Mc.Explore.run_choices sys v.choices in
  let outcome =
    match off.outcome with
    | Some o -> o
    | None -> Alcotest.failf "violating run died: %s"
                (match off.verdict with Error e -> e | Ok () -> "?")
  in
  (match off.verdict with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "schedule no longer violates");
  (* The monitor fold and the independent witness construction each
     reject the history on their own. *)
  (match Checker.Feed.check ~mode:Obs.Monitor.Atomic ~n:spec.n outcome.history with
  | Error _ -> ()
  | Ok () ->
      Alcotest.failf "feed adapter accepted the %s history"
        (Mc.Mutants.to_string m));
  (match Checker.Linearize.linearize ~n:spec.n outcome.history with
  | Error _ -> ()
  | Ok _ ->
      Alcotest.failf "linearized the %s history" (Mc.Mutants.to_string m));
  let total = outcome.net.delivered in
  (* The same schedule with the monitor on: caught mid-run, strictly
     before all messages are delivered, with a provenance slice. *)
  let on = Mc.Explore.run_choices { sys with monitor = true } v.choices in
  match on.online with
  | None ->
      Alcotest.failf "monitor missed mutant %s (%s)" (Mc.Mutants.to_string m)
        (match on.verdict with Error e -> e | Ok () -> "run passed")
  | Some c ->
      Alcotest.(check bool) "online verdict tagged" true
        (match on.verdict with
        | Error msg -> String.length msg >= 7 && String.sub msg 0 7 = "online:"
        | Ok () -> false);
      Alcotest.(check bool) "non-empty provenance slice" true (c.slice <> []);
      Alcotest.(check bool)
        (Printf.sprintf
           "caught after %d of %d delivered messages — strictly earlier"
           c.delivered total)
        true
        (c.delivered < total)

(* ---- monitor-on exhaustive sweep: zero false positives -------------- *)

let test_monitor_zero_false_positives () =
  let config =
    { Harness.Runner.n = 3; f = 1; delay = Harness.Runner.Fixed_d 1.0;
      seed = 42L }
  in
  let workload =
    Harness.Workload.updates_at_zero ~n:3 ~updaters:[ 0 ] ~scanner:(Some 1)
  in
  let sys = Mc.Explore.sys_of_algo ~monitor:true ~config ~workload eq_aso in
  let r =
    Mc.Explore.explore sys
      (Mc.Explore.Dfs { max_schedules = 100_000; max_depth = 12 })
  in
  (match r.violation with
  | None -> ()
  | Some v -> Alcotest.failf "monitor false positive: %s" v.message);
  Alcotest.(check bool) "space exhausted" true r.exhausted

(* ---- deterministic metrics export ----------------------------------- *)

let test_metrics_sorted_order_insensitive () =
  let build order =
    let t = Obs.Metrics.create () in
    List.iter
      (fun name ->
        match name.[0] with
        | 'c' -> Obs.Metrics.add (Obs.Metrics.counter t name) 3
        | 'g' -> Obs.Metrics.set (Obs.Metrics.gauge t name) 1.5
        | _ -> Obs.Metrics.observe (Obs.Metrics.histogram t name) 2.0)
      order;
    Obs.Metrics.sorted (Obs.Metrics.snapshot t)
  in
  Alcotest.(check bool) "registration order does not leak into the export"
    true
    (build [ "c.one"; "g.two"; "h.three" ]
    = build [ "h.three"; "c.one"; "g.two" ])

let test_metrics_sorted_deterministic_runs () =
  let snap () =
    let _, outcome = recorded_run ~substrate:Sim.Network.Ideal 13L in
    Format.asprintf "%a" Obs.Metrics.pp_snapshot
      (Obs.Metrics.sorted outcome.metrics)
  in
  Alcotest.(check string) "identically-seeded runs export byte-identically"
    (snap ()) (snap ())

(* ------------------------------------------------------------------ *)

let case name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f
let qcase t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "vclock",
      [
        qcase prop_join_laws;
        qcase prop_leq_order;
        case "hb vs delivery (ideal)" test_hb_ideal;
        case "hb vs delivery (lossy)" test_hb_lossy;
        case "hb exact: clocks = reachability (sim, n = 3..5)"
          test_hb_exact_sim;
        case "hb exact within the window (rt nodes, capped log)"
          test_hb_exact_rt_window;
        case "replay puts a delivery after its send despite skewed times"
          test_replay_orders_skewed_times;
        case "reads racing a lapping writer: whole events, no failure"
          test_reads_race_lapping_writer;
        case "causal slice is monotone" test_slice_monotone;
        case "shiviz export shape" test_shiviz_export;
        case "perfetto flow events" test_perfetto_flows;
      ] );
    ( "monitor",
      [
        case "clean stream accepted" test_monitor_clean;
        case "well-formedness" test_monitor_wf;
        case "A0 legality" test_monitor_a0;
        case "A1 base comparability" test_monitor_a1;
        case "A2 completed-update inclusion" test_monitor_a2;
        case "A3 scan monotonicity" test_monitor_a3;
        case "A4 predecessor closure" test_monitor_a4;
        case "round budget" test_monitor_budget;
        case "sticky after first violation" test_monitor_sticky;
        case "agrees with batch checker on correct runs"
          test_feed_agrees_on_correct_runs;
        slow "zero false positives (exhaustive, monitor on)"
          test_monitor_zero_false_positives;
      ] );
    ( "monitor mutants",
      [
        slow "skip-write-tag caught online, earlier"
          (check_online_catch Mc.Mutants.Skip_write_tag);
        slow "quorum-off-by-one caught online, earlier"
          (check_online_catch Mc.Mutants.Quorum_off_by_one);
        slow "stale-renewal caught online, earlier"
          (check_online_catch Mc.Mutants.Stale_renewal);
      ] );
    ( "metrics determinism",
      [
        case "sorted export ignores registration order"
          test_metrics_sorted_order_insensitive;
        case "sorted export is run-deterministic"
          test_metrics_sorted_deterministic_runs;
      ] );
  ]
