(* The rt live monitor (PR 9): seeded protocol mutants must be caught
   by the online monitor domain *mid-run* — strictly before the time
   budget elapses — with a non-empty causal-cone slice from the
   vector-clock wiring; clean runs at 2-4 client domains must show zero
   false positives (the bounded-lag feed never reorders events); and a
   deliberately slowed monitor must fall behind yet still verify the
   complete history at shutdown (the drain-then-join contract).

   quorum-off-by-one needs an adversarial schedule on rt: real-time
   delivery plus the kernel's forward-once relay close the
   non-intersecting-quorum race almost instantly (the model checker
   finds the schedule on sim under a lossy substrate; wall-clock
   scheduling does not). The test builds the schedule with
   [Rt.Net.cut_link]: isolate nodes 2-3 from inbound traffic, run one
   update at node 0 — the *correct* quorum (n - f = 3) cannot assemble
   on the {0,1} island, so the write would block, but the mutated
   quorum (n - f - 1 = 2) completes it — heal the links, and scan at
   node 2. The value-bearing messages were dropped while the links were
   down and nothing retransmits them, so the scan's equivalent views
   legitimately agree on a base missing a completed update: the A2
   violation the off-by-one intersection failure permits, manifested
   deterministically, with no in-flight operation ever stalled on a cut
   link (the orchestrated ops run before client traffic exists). *)

let budget_secs = 8.0

(* One closed-loop window over a started deployment; [before] runs on
   the live deployment before the clients start. The deployment is
   stopped (monitor drained) when this returns. *)
let run_load ?(before = ignore) ?(scan_fraction = 0.2) ?faults s ~clients
    ~secs =
  let d = Rt.Service.deployment s in
  Rt.Service.start s;
  before s;
  let r = Load.run ?faults d ~clients ~secs ~scan_fraction ~seed:42 in
  Rt.Service.stop s;
  r

let monitor s = Option.get (Rt.Service.live_monitor s)

let run_mutant ?before m =
  let s =
    Rt.Service.create ~online:true ~mutation:m ~algo:Rt.Service.Eq_aso ~n:4
      ~f:1 ()
  in
  (run_load ?before ~scan_fraction:0.5 s ~clients:4 ~secs:budget_secs, s)

let check_caught_live name ((r : Load.report), s) =
  match Rt.Live_monitor.tripped (monitor s) with
  | None ->
      Alcotest.failf "%s: live monitor missed the mutant (%d ops ran)" name
        (r.completed_updates + r.completed_scans)
  | Some v ->
      (* The trip halts client intake, so the measured duration is the
         detection latency — strictly before the run would have ended. *)
      Alcotest.(check bool)
        (name ^ ": caught strictly before the budget elapsed")
        true
        (r.duration < budget_secs *. 0.75);
      Alcotest.(check bool)
        (name ^ ": causal slice is non-empty")
        true (v.slice <> []);
      Alcotest.(check bool)
        (name ^ ": slice events carry cross-node arrows")
        true
        (List.exists
           (fun (ev : Obs.Vclock.event) ->
             match ev.kind with
             | Obs.Vclock.Send { dst } -> dst <> ev.node
             | Obs.Vclock.Deliver { src } -> src <> ev.node
             | _ -> false)
           v.slice);
      Alcotest.(check bool)
        (name ^ ": monitor consumed events before tripping")
        true
        (Rt.Live_monitor.events_checked (monitor s) > 0)

let test_skip_write_tag_live () =
  check_caught_live "skip-write-tag"
    (run_mutant Aso_core.Lattice_core.Skip_write_tag)

let test_stale_renewal_live () =
  check_caught_live "stale-renewal"
    (run_mutant Aso_core.Lattice_core.Stale_renewal)

let test_quorum_off_by_one_live () =
  let r =
    run_mutant
      ~before:(fun s ->
        let net = Rt.Service.net s in
        (* Isolate nodes 2 and 3 from inbound traffic. *)
        List.iter
          (fun dst ->
            List.iter
              (fun src ->
                if src <> dst then Rt.Net.cut_link net ~src ~dst)
              [ 0; 1; 2; 3 ])
          [ 2; 3 ];
        (* The mutated quorum (2) completes this write on the {0,1}
           island; the correct quorum (3) would block here. Its value
           broadcast and the forward-once relays die on the cut links,
           and nothing ever retransmits them. *)
        (* Value 0: the load driver mints 1, 2, 3, ... *)
        (match Rt.Service.update s ~node:0 0 with
        | `Done -> ()
        | `Rejected | `Aborted ->
            Alcotest.fail "partitioned-island update did not complete");
        List.iter
          (fun dst ->
            List.iter
              (fun src ->
                if src <> dst then Rt.Net.heal_link net ~src ~dst)
              [ 0; 1; 2; 3 ])
          [ 2; 3 ];
        (* Node 2 can never learn the completed value, so this scan's
           equivalent views agree on a base that is missing it: A2,
           caught by the monitor domain the moment the scan responds. *)
        match Rt.Service.scan s ~node:2 with
        | `Snap _ -> ()
        | `Rejected | `Aborted -> Alcotest.fail "post-heal scan died")
      Aso_core.Lattice_core.Quorum_off_by_one
  in
  check_caught_live "quorum-off-by-one" r

(* ------------------------------------------------------------------ *)
(* Zero false positives: clean runs with the monitor on, across client
   counts (2-4 concurrent submitting domains) and both algorithms. The
   monitor must check the *entire* history (drain-then-join) and agree
   with the batch checker that it is clean. *)

let check_clean algo ~n ~clients () =
  let s = Rt.Service.create ~online:true ~algo ~n ~f:1 () in
  let r = run_load s ~clients ~secs:0.4 in
  let lm = monitor s in
  (match Rt.Live_monitor.tripped lm with
  | None -> ()
  | Some v ->
      Alcotest.failf "false positive: %a" Rt.Live_monitor.pp_verdict v);
  Alcotest.(check bool) "ran work" true (r.completed_updates > 0);
  (* Every stamped history event reached the monitor: 2 per completed
     op (invoke + respond), nothing pending or aborted in a clean
     run. *)
  Alcotest.(check int) "monitor checked the complete history"
    (2 * (r.completed_updates + r.completed_scans))
    (Rt.Live_monitor.events_checked lm);
  Alcotest.(check bool) "scans verified" true
    (Rt.Live_monitor.scans_verified lm > 0)

(* Crash-restart with the monitor on: the restart's aborts and the
   recovered node's probe scan reach the monitor through the history,
   like every other boundary, so the monitor checks exactly the events
   [Feed.events] lowers from the final history, and none of them trips
   it. EQ-ASO only: on SSO the monitor's Sequential mode counts an
   aborted update that no scan returned as taken effect and can report
   a false (S2) — the open checker gap that ROADMAP item 1 tracks. *)
let test_crash_restart_online () =
  let s =
    Rt.Service.create ~online:true ~algo:Rt.Service.Eq_aso ~n:4 ~f:1 ()
  in
  let r =
    run_load
      ~faults:(Load.faults ~n:4 ~f:1 ~crash_at:0.1 ~restart_at:0.2 [ 0 ])
      s ~clients:4 ~secs:0.5
  in
  let lm = monitor s in
  (match Rt.Live_monitor.tripped lm with
  | None -> ()
  | Some v ->
      Alcotest.failf "false positive across a restart: %a"
        Rt.Live_monitor.pp_verdict v);
  Alcotest.(check (list int)) "node 0 restarted" [ 0 ] r.restarted;
  Alcotest.(check int) "the probe scan ran" 1
    (List.length (Rt.Service.recoveries s));
  Alcotest.(check int) "monitor checked the history's whole stream"
    (List.length (Checker.Feed.events (Rt.Service.history s)))
    (Rt.Live_monitor.events_checked lm)

(* ------------------------------------------------------------------ *)
(* Stamp soundness: the rt causal log the violation slices are cut
   from must itself be a happened-before log. In the retained window of
   a clean run, every flow id pairs at most one send with at most one
   deliver, on the right nodes; the deliver comes later in the global
   index and its clock dominates the send's. *)

let test_rt_stamps_sound () =
  let s = Rt.Service.create ~online:true ~algo:Rt.Service.Eq_aso ~n:3 ~f:1 () in
  let r = run_load s ~clients:2 ~secs:0.3 in
  Alcotest.(check bool) "ran work" true (r.completed_updates > 0);
  let vr = Option.get (Rt.Net.causal (Rt.Service.net s)) in
  let sends = Hashtbl.create 4096 and delivers = Hashtbl.create 4096 in
  let add tbl (ev : Obs.Vclock.event) what =
    if Hashtbl.mem tbl ev.flow then
      Alcotest.failf "flow %d has two %ss (#%d)" ev.flow what ev.idx;
    Hashtbl.replace tbl ev.flow ev
  in
  List.iter
    (fun (ev : Obs.Vclock.event) ->
      match ev.kind with
      | Obs.Vclock.Send _ -> add sends ev "send"
      | Obs.Vclock.Deliver _ -> add delivers ev "deliver"
      | _ -> ())
    (Obs.Vclock.events vr);
  let pairs = ref 0 in
  Hashtbl.iter
    (fun flow (d : Obs.Vclock.event) ->
      match Hashtbl.find_opt sends flow with
      | None -> () (* the send fell out of its node's window *)
      | Some (snd : Obs.Vclock.event) ->
          incr pairs;
          (match (snd.kind, d.kind) with
          | Obs.Vclock.Send { dst }, Obs.Vclock.Deliver { src } ->
              if dst <> d.node || src <> snd.node then
                Alcotest.failf "flow %d: send n%d->n%d, deliver n%d<-n%d" flow
                  snd.node dst d.node src
          | _ -> assert false);
          if d.idx <= snd.idx then
            Alcotest.failf "flow %d: deliver #%d not after send #%d" flow d.idx
              snd.idx;
          if not (Obs.Vclock.happened_before snd d) then
            Alcotest.failf "flow %d: deliver clock %a does not dominate send %a"
              flow Obs.Vclock.pp d.vc Obs.Vclock.pp snd.vc)
    delivers;
  Alcotest.(check bool) "matched send/deliver pairs in the window" true
    (!pairs > 100)

(* Each rt message is recorded once, in the causal log: the flight
   recorder's rings hold no [net.msg] event, and the exported trace
   draws the arrows from the log — one flow start per retained [Send]
   on the sender's track, one flow end per retained [Deliver] whose
   [Send] is retained on the receiver's, paired by flow id, no end
   without its start. *)
let test_arrows_from_causal_log () =
  let s = Rt.Service.create ~online:true ~algo:Rt.Service.Eq_aso ~n:3 ~f:1 () in
  Rt.Service.start s;
  for i = 1 to 300 do
    let node = i mod 3 in
    let ok =
      if i mod 5 = 0 then
        match Rt.Service.scan s ~node with `Snap _ -> true | _ -> false
      else Rt.Service.update s ~node i = `Done
    in
    if not ok then Alcotest.failf "op %d at n%d did not complete" i node
  done;
  Rt.Service.stop s;
  let rc = Option.get (Rt.Service.recorder s) in
  let vr = Option.get (Rt.Net.causal (Rt.Service.net s)) in
  List.iter
    (fun (ev : Obs.Recorder.event) ->
      if Obs.Recorder.code_name rc ev.e_code = "net.msg" then
        Alcotest.fail "a net.msg event in the recorder rings")
    (Obs.Recorder.events rc);
  let sends = Hashtbl.create 4096 in
  let log = Obs.Vclock.events vr in
  List.iter
    (fun (ev : Obs.Vclock.event) ->
      match ev.kind with
      | Obs.Vclock.Send _ -> Hashtbl.replace sends ev.flow ()
      | _ -> ())
    log;
  let expect keep =
    List.filter_map
      (fun (ev : Obs.Vclock.event) ->
        if keep ev then Some (ev.flow, ev.node) else None)
      log
    |> List.sort compare
  in
  let tr = Rt.Telem.to_trace ~causal:vr rc in
  let drawn kind =
    List.filter_map
      (fun (ev : Obs.Trace.event) ->
        match List.assoc_opt "id" ev.args with
        | Some (Obs.Trace.Int id) when ev.name = "net.msg" && ev.kind = kind ->
            Some (id, ev.pid)
        | _ -> None)
      (Obs.Trace.events tr)
    |> List.sort compare
  in
  let starts = drawn Obs.Trace.Flow_start
  and ends = drawn Obs.Trace.Flow_end in
  Alcotest.(check (list (pair int int)))
    "one flow start per causal send, on the sender's track"
    (expect (fun ev ->
         match ev.kind with Obs.Vclock.Send _ -> true | _ -> false))
    starts;
  Alcotest.(check (list (pair int int)))
    "one flow end per causal deliver whose send is retained, on the \
     receiver's track"
    (expect (fun ev ->
         match ev.kind with
         | Obs.Vclock.Deliver _ -> Hashtbl.mem sends ev.flow
         | _ -> false))
    ends;
  Alcotest.(check bool) "hundreds of arrows drawn" true
    (List.length ends > 300);
  Alcotest.(check bool) "the rings' op spans are in the trace too" true
    (List.exists
       (fun (ev : Obs.Trace.event) -> ev.name = "op.update")
       (Obs.Trace.events tr))

(* Reads concurrent with the writers: while a deployment serves 300+
   operations, another domain replays the causal log ([events], and
   [cone] at each node) in a loop, as the monitor domain does when it
   trips. Every returned event must be well-formed — a send or a
   delivery (rt records no drop), node and peer in range, a positive
   flow id naming its sender — and every [Deliver] whose [Send] was
   returned with it must dominate that [Send]. *)
let test_concurrent_log_reads () =
  let n = 3 in
  let s = Rt.Service.create ~online:true ~algo:Rt.Service.Eq_aso ~n ~f:1 () in
  let vr = Option.get (Rt.Net.causal (Rt.Service.net s)) in
  let check_read (evs : Obs.Vclock.event list) =
    let sends = Hashtbl.create 4096 in
    List.iter
      (fun (ev : Obs.Vclock.event) ->
        let sender =
          match ev.kind with
          | Obs.Vclock.Send { dst } ->
              if dst < 0 || dst >= n then Alcotest.failf "send to n%d" dst;
              Hashtbl.replace sends ev.flow ev;
              ev.node
          | Obs.Vclock.Deliver { src } ->
              if src < 0 || src >= n then Alcotest.failf "deliver from n%d" src;
              src
          | Obs.Vclock.Drop _ | Obs.Vclock.Local ->
              Alcotest.failf "#%d: rt logged a drop or local event" ev.idx
        in
        if ev.node < 0 || ev.node >= n then
          Alcotest.failf "event on n%d" ev.node;
        if ev.flow <= 0 || (ev.flow - 1) mod n <> sender then
          Alcotest.failf "#%d: flow %d does not name sender n%d" ev.idx ev.flow
            sender)
      evs;
    List.iter
      (fun (d : Obs.Vclock.event) ->
        match (d.kind, Hashtbl.find_opt sends d.flow) with
        | Obs.Vclock.Deliver _, Some snd ->
            if not (Obs.Vclock.happened_before snd d) then
              Alcotest.failf "flow %d: deliver %a does not dominate send %a"
                d.flow Obs.Vclock.pp d.vc Obs.Vclock.pp snd.vc
        | _ -> ())
      evs
  in
  let stop = Atomic.make false and reads = Atomic.make 0 in
  Rt.Service.start s;
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let k = Atomic.get reads in
          check_read
            (if k mod (n + 1) = n then Obs.Vclock.events vr
             else Obs.Vclock.cone vr ~node:(k mod (n + 1)));
          Atomic.incr reads
        done)
  in
  let ops = ref 0 in
  (* At least 300 operations, and enough for several reads to overlap
     them. *)
  while (!ops < 300 || Atomic.get reads < 4) && !ops < 100_000 do
    incr ops;
    let node = !ops mod n in
    let ok =
      if !ops mod 5 = 0 then
        match Rt.Service.scan s ~node with `Snap _ -> true | _ -> false
      else Rt.Service.update s ~node !ops = `Done
    in
    if not ok then Alcotest.failf "op %d at n%d did not complete" !ops node
  done;
  Atomic.set stop true;
  let outcome = try Ok (Domain.join reader) with e -> Error e in
  Rt.Service.stop s;
  (match outcome with Ok () -> () | Error e -> raise e);
  Alcotest.(check bool) "reads overlapped the operations" true
    (Atomic.get reads >= 4);
  check_read (Obs.Vclock.events vr)

(* ------------------------------------------------------------------ *)
(* Bounded lag: throttle the monitor domain so it provably falls behind
   the service, then verify (a) no false positive appears under lag,
   (b) the shutdown drain still checks every event, and (c) the lag
   actually materialized (the sampled lag distribution has a non-zero
   max — otherwise this test would not be testing anything). *)

let test_lag_bound_slowed_monitor () =
  let s =
    Rt.Service.create ~online:true
      ~monitor_throttle:(fun () -> Unix.sleepf 0.0002)
      ~algo:Rt.Service.Eq_aso ~n:3 ~f:1 ()
  in
  let r = run_load s ~clients:4 ~secs:0.25 in
  (match Rt.Live_monitor.tripped (monitor s) with
  | None -> ()
  | Some v ->
      Alcotest.failf "false positive under lag: %a" Rt.Live_monitor.pp_verdict
        v);
  Alcotest.(check int) "drain checked every event despite the lag"
    (2 * (r.completed_updates + r.completed_scans))
    (Rt.Live_monitor.events_checked (monitor s));
  let lag_max =
    match
      Obs.Metrics.find_dist (Rt.Service.stats_snapshot s) "aso.monitor.lag_dist"
    with
    | Some d -> Option.value ~default:0.0 (Obs.Hdr.dist_max d)
    | None -> Alcotest.fail "aso.monitor.lag_dist not exported"
  in
  Alcotest.(check bool) "the throttled monitor actually fell behind" true
    (lag_max > 0.0)

(* ------------------------------------------------------------------ *)
(* The link-cut fault injection itself: a cut link drops (and counts)
   instead of delivering; healing restores the flow. *)

let test_cut_link_drops () =
  let net : int Rt.Net.t = Rt.Net.create ~recorder:false ~n:2 () in
  let got = Atomic.make 0 in
  let b = Rt.Net.backend net in
  b.Backend.set_handler 0 (fun ~src:_ _ -> ());
  b.Backend.set_handler 1 (fun ~src:_ v -> Atomic.set got v);
  Rt.Net.start net;
  let eventually pred =
    let rec go n =
      pred () || (n > 0 && (Unix.sleepf 0.001; go (n - 1)))
    in
    go 2_000
  in
  Rt.Net.send net ~src:0 ~dst:1 41;
  Alcotest.(check bool) "delivered before the cut" true
    (eventually (fun () -> Atomic.get got = 41));
  Rt.Net.cut_link net ~src:0 ~dst:1;
  Rt.Net.send net ~src:0 ~dst:1 42;
  Rt.Net.send net ~src:0 ~dst:1 43;
  Rt.Net.heal_link net ~src:0 ~dst:1;
  Rt.Net.send net ~src:0 ~dst:1 44;
  Alcotest.(check bool) "healed link delivers again" true
    (eventually (fun () -> Atomic.get got = 44));
  Alcotest.(check bool) "cut messages never arrived" true
    (Atomic.get got = 44);
  Rt.Net.stop net;
  let snap = Obs.Metrics.snapshot (Rt.Net.metrics net) in
  Alcotest.(check (option int)) "drops counted" (Some 2)
    (Obs.Metrics.find_count snap "net.dropped")

let case name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let suites =
  [
    ( "live monitor (rt)",
      [
        case "cut link drops, heal restores" test_cut_link_drops;
        case "clean eq-aso, 2 clients: no false positive"
          (check_clean Rt.Service.Eq_aso ~n:3 ~clients:2);
        case "clean eq-aso, 4 clients: no false positive"
          (check_clean Rt.Service.Eq_aso ~n:4 ~clients:4);
        case "clean sso, 3 clients: no false positive"
          (check_clean Rt.Service.Sso_fast_scan ~n:4 ~clients:3);
        case "slowed monitor: lag bounded, full drain, no false positive"
          test_lag_bound_slowed_monitor;
        case "eq-aso crash-restart: no false positive, whole stream checked"
          test_crash_restart_online;
        case "rt stamps: one send/deliver per flow, deliver dominates"
          test_rt_stamps_sound;
        case "rt arrows drawn from the causal log, none in the rings"
          test_arrows_from_causal_log;
        case "causal log read while the nodes write: well-formed, \
              deliver dominates"
          test_concurrent_log_reads;
        slow "skip-write-tag caught live, mid-run"
          test_skip_write_tag_live;
        slow "stale-renewal caught live, mid-run" test_stale_renewal_live;
        slow "quorum-off-by-one caught live under partition"
          test_quorum_off_by_one_live;
      ] );
  ]
