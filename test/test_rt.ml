(* The rt backend: mailbox queue laws (sequential model-based and
   under real producer domains), node lifecycle (parking wake-up,
   poison), and service-level runs whose real-time histories must pass
   the same batch checker as the simulator's virtual-time ones —
   including the sim-vs-rt same-workload comparison and a run with a
   crashed node. *)

module Q = Rt.Queue

let qcase t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Queue: sequential model-based. With a single domain the MPSC queue
   must behave exactly like a FIFO; [Some v] means push v, [None] means
   pop (compared against the model's answer, including emptiness). *)

let queue_sequential_model =
  QCheck.Test.make ~count:300 ~name:"queue agrees with FIFO model"
    QCheck.(list (option small_int))
    (fun ops ->
      let q = Q.create () in
      let model = Stdlib.Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              Q.push q v;
              Stdlib.Queue.push v model;
              true
          | None -> Q.pop_opt q = Stdlib.Queue.take_opt model)
        ops
      && Q.is_empty q = Stdlib.Queue.is_empty model)

(* [length] walks from the consumer's head: after any sequence of
   pushes and pops it is the model's size, p - q after p pushes and q
   successful pops. *)
let queue_length_model =
  QCheck.Test.make ~count:300 ~name:"queue length = pushes - pops"
    QCheck.(list (option small_int))
    (fun ops ->
      let q = Q.create () in
      let size = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Some v ->
              Q.push q v;
              incr size
          | None -> if Q.pop_opt q <> None then decr size);
          Q.length q = !size)
        ops)

(* ------------------------------------------------------------------ *)
(* Queue: the MPSC laws under 2-4 real producer domains. Each producer
   pushes its own tagged sequence (p, 0), (p, 1), ...; the test domain
   is the single consumer, spinning through the Vyukov
   transient-emptiness windows. Checked: no loss, no duplication
   (multiset equality via counts), and per-producer FIFO — the property
   that carries the per-channel FIFO guarantee of the simulator's
   transport over to rt. *)

let queue_mpsc_laws =
  QCheck.Test.make ~count:20 ~name:"queue MPSC laws under 2-4 domains"
    QCheck.(pair (int_range 2 4) (int_range 1 200))
    (fun (producers, per) ->
      let q = Q.create () in
      let doms =
        List.init producers (fun p ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  Q.push q (p, i)
                done))
      in
      let total = producers * per in
      let popped_rev = ref [] in
      let count = ref 0 in
      while !count < total do
        match Q.pop_opt q with
        | Some x ->
            popped_rev := x :: !popped_rev;
            incr count
        | None -> Domain.cpu_relax ()
      done;
      List.iter Domain.join doms;
      (* all producers joined: a non-empty queue now would be a
         duplication or a phantom element *)
      let drained = Q.pop_opt q = None && Q.is_empty q in
      let popped = List.rev !popped_rev in
      let fifo_of p =
        List.filter_map
          (fun (p', i) -> if p' = p then Some i else None)
          popped
        = List.init per Fun.id
      in
      let fifo = List.for_all fifo_of (List.init producers Fun.id) in
      drained && fifo && List.length popped = total)

(* ------------------------------------------------------------------ *)
(* Node lifecycle. *)

let eventually ?(tries = 500) pred =
  let rec go n =
    if pred () then true
    else if n = 0 then false
    else (
      Thread.delay 0.01;
      go (n - 1))
  in
  go tries

let test_node_parked_wakeup () =
  let nd : unit Rt.Node.t = Rt.Node.create 0 in
  Rt.Node.set_handler nd (fun ~src:_ () -> ());
  Rt.Node.start nd;
  (* let the domain reach the parked state on its empty mailbox *)
  Thread.delay 0.05;
  let hit = Atomic.make false in
  Alcotest.(check bool)
    "post accepted" true
    (Rt.Node.post nd (Rt.Node.Work (fun () -> Atomic.set hit true)));
  Alcotest.(check bool)
    "parked node woke and ran the work" true
    (eventually (fun () -> Atomic.get hit));
  ignore (Rt.Node.post nd Rt.Node.Stop);
  Rt.Node.join nd

let test_node_poison () =
  let nd : unit Rt.Node.t = Rt.Node.create 1 in
  Rt.Node.set_handler nd (fun ~src:_ () -> ());
  Rt.Node.start nd;
  Rt.Node.crash nd;
  (* the domain observes the poison and exits: join terminates *)
  Rt.Node.join nd;
  Alcotest.(check bool) "is_crashed" true (Rt.Node.is_crashed nd);
  Alcotest.(check bool)
    "posts to a crashed node are dropped" false
    (Rt.Node.post nd (Rt.Node.Work (fun () -> Alcotest.fail "ran")));
  (* idempotent *)
  Rt.Node.crash nd;
  Rt.Node.join nd

(* ------------------------------------------------------------------ *)
(* Sim vs rt, same workload: every node runs [rounds] of UPDATE; SCAN
   back to back (the closed-loop workload), once on the simulator and
   once on real domains. Both histories — one in virtual time, one in
   monotonic wall time — must pass the identical batch A0-A4 check.
   18 ops is past the Wing-Gong oracle's 14-op ceiling, so both go
   through the monitor fold and the constructive witness only. *)

let rounds = 3
let wl_n = 3

let test_sim_vs_rt_same_workload () =
  (* sim side *)
  let config =
    { Harness.Runner.default_config with n = wl_n; f = 1 }
  in
  let workload = Harness.Workload.closed_loop ~n:wl_n ~rounds in
  let outcome =
    Harness.Runner.run ~make:Harness.Algo.eq_aso.make config ~workload
      ~adversary:Harness.Adversary.No_faults
  in
  (match Checker.Batch.check ~n:wl_n Obs.Monitor.Atomic outcome.history with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("sim history rejected: " ^ e));
  (* rt side: same per-node schedule, submitted by one client thread
     pinned to each node *)
  let s = Rt.Service.create ~algo:Rt.Service.Eq_aso ~n:wl_n ~f:1 () in
  Rt.Service.start s;
  let client node () =
    for round = 1 to rounds do
      (match Rt.Service.update s ~node ((node * rounds) + round) with
      | `Done -> ()
      | `Rejected | `Aborted ->
          Alcotest.fail "update crashed in failure-free run");
      match Rt.Service.scan s ~node with
      | `Snap _ -> ()
      | `Rejected | `Aborted ->
          Alcotest.fail "scan crashed in failure-free run"
    done
  in
  let threads =
    List.init wl_n (fun node -> Thread.create (client node) ())
  in
  List.iter Thread.join threads;
  Rt.Service.stop s;
  let h = Rt.Service.history s in
  Alcotest.(check int)
    "rt ran the whole workload" (wl_n * rounds * 2)
    (List.length (History.completed h));
  Alcotest.(check int) "rt: nothing pending" 0
    (List.length (History.pending h));
  match Checker.Batch.check ~n:wl_n Obs.Monitor.Atomic h with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("rt history rejected: " ^ e)

(* ------------------------------------------------------------------ *)
(* Crashed node (k = 1 <= f): the run must still terminate — crashed
   in-flight requests resolve as [`Crashed], clients fail over — and
   the surviving history must linearize, with at most one pending
   operation left by the dead node. *)

let test_rt_crash_run_linearizes () =
  let s = Rt.Service.create ~algo:Rt.Service.Eq_aso ~n:4 ~f:1 () in
  let d = Rt.Service.deployment s in
  Rt.Service.start s;
  let r =
    Load.run
      ~faults:(Load.faults ~n:4 ~f:1 ~crash_at:0.1 [ 0 ])
      d ~clients:6 ~secs:0.3 ~scan_fraction:0.2 ~seed:42
  in
  Rt.Service.stop s;
  let h = Rt.Service.history s in
  Alcotest.(check (list int)) "node 0 crashed" [ 0 ] r.crashed;
  Alcotest.(check bool)
    "work completed despite the crash" true
    (r.completed_updates + r.completed_scans > 0);
  Alcotest.(check bool)
    "at most one pending op at the crashed node" true
    (List.length (History.pending h) <= 1);
  match Checker.Feed.check ~mode:Obs.Monitor.Atomic ~n:4 h with
  | Ok () -> ()
  | Error v ->
      Alcotest.fail
        (Format.asprintf "crash-run history rejected: %a"
           Obs.Monitor.pp_violation v)

(* A stop ends a waiting operation: a work item that awaits a predicate
   that never holds (as a rejoin does once its peers have stopped) must
   not keep [Net.stop] from returning. If it does, crashing the node
   unwinds the wait, so the test fails instead of hanging. *)
let test_stop_ends_await () =
  let net = Rt.Net.create ~recorder:false ~n:2 () in
  Rt.Net.start net;
  let waiting = Atomic.make false in
  let cond = (Rt.Net.backend net).new_condition ~node:0 in
  ignore
    (Rt.Net.post_work net 0 (fun () ->
         Atomic.set waiting true;
         cond.await (fun () -> false))
      : bool);
  let within secs flag =
    let deadline = Unix.gettimeofday () +. secs in
    while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
      Thread.delay 0.005
    done;
    Atomic.get flag
  in
  if not (within 1. waiting) then Alcotest.fail "the work item never ran";
  let stopped = Atomic.make false in
  let stopper =
    Thread.create (fun () -> Rt.Net.stop net; Atomic.set stopped true) ()
  in
  let ok = within 1. stopped in
  if not ok then Rt.Net.crash net 0;
  Thread.join stopper;
  Alcotest.(check bool) "Net.stop returned within 1 s" true ok

let suites =
  [
    ( "rt",
      [
        qcase queue_sequential_model;
        qcase queue_length_model;
        qcase queue_mpsc_laws;
        Alcotest.test_case "parked node wakes on post" `Quick
          test_node_parked_wakeup;
        Alcotest.test_case "poisoned node drops and exits" `Quick
          test_node_poison;
        Alcotest.test_case "sim vs rt: same workload, both linearize"
          `Quick test_sim_vs_rt_same_workload;
        Alcotest.test_case "crash run terminates and linearizes" `Quick
          test_rt_crash_run_linearizes;
        Alcotest.test_case "stop ends an operation's await" `Quick
          test_stop_ends_await;
      ] );
  ]
