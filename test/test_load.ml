(* The closed-loop load driver against a fake in-memory deployment:
   the driver's own decisions (values, failover, fault choreography,
   halting, plan validation) checked without any backend underneath.
   The fake is a plain record of closures, the same shape rt and dist
   hand the driver. *)

type event = Op of { client : int; node : int; value : int option } | Crash of int | Restart of int

type fake = {
  dep : Load.deployment;
  events : unit -> event list;  (** oldest first *)
  halt : unit -> unit;
}

(* Every op takes ~0.5 ms and is accepted only while its node is up. *)
let fake ?(halt_after = max_int) n =
  let up = Array.init n (fun _ -> Atomic.make true) in
  let mu = Mutex.create () in
  let log = ref [] and ops = ref 0 in
  let halted = Atomic.make false in
  let note ev =
    Mutex.lock mu;
    log := ev :: !log;
    (match ev with
    | Op _ ->
        incr ops;
        if !ops >= halt_after then Atomic.set halted true
    | Crash _ | Restart _ -> ());
    Mutex.unlock mu
  in
  let op client node value =
    Thread.delay 0.0005;
    if Atomic.get up.(node) then (
      note (Op { client; node; value });
      `Done)
    else `Rejected
  in
  let dep =
    {
      Load.n;
      up = (fun i -> Atomic.get up.(i));
      session =
        (fun client ->
          {
            Load.update = (fun ~node v -> op client node (Some v));
            scan = (fun ~node -> op client node None);
            close = ignore;
          });
      crash =
        (fun i ->
          Atomic.set up.(i) false;
          note (Crash i));
      restart =
        (fun i ->
          Atomic.set up.(i) true;
          note (Restart i));
      halted = (fun () -> Atomic.get halted);
      metrics = Obs.Metrics.create ();
    }
  in
  let events () =
    Mutex.lock mu;
    let l = List.rev !log in
    Mutex.unlock mu;
    l
  in
  { dep; events; halt = (fun () -> Atomic.set halted true) }

let run ?faults ?(clients = 1) ?(secs = 0.3) fk =
  Load.run ?faults fk.dep ~clients ~secs ~scan_fraction:0.3 ~seed:7

let ops_of fk ~client =
  List.filter_map
    (function Op o when o.client = client -> Some o.node | _ -> None)
    (fk.events ())

let test_unique_values () =
  let fk = fake 3 in
  let r = run ~clients:4 fk in
  let values =
    List.filter_map (function Op { value; _ } -> value | _ -> None)
      (fk.events ())
  in
  Alcotest.(check int) "every completed update logged" r.completed_updates
    (List.length values);
  Alcotest.(check bool) "updates ran" true (r.completed_updates > 20);
  Alcotest.(check int) "no value repeats across clients"
    (List.length values)
    (List.length (List.sort_uniq compare values))

(* Nodes 0 and 1 down: client 0 (home 0) must land on node 2, the first
   up node after its home, never on 3 or 4; once they are back it must
   go home again. *)
let test_failover_and_return () =
  let fk = fake 5 in
  let faults = Load.faults ~n:5 ~f:2 ~crash_at:0.1 ~restart_at:0.2 [ 1; 0 ] in
  let (_ : Load.report) = run ~faults fk in
  let nodes = ops_of fk ~client:0 in
  Alcotest.(check int) "served at home before the crash" 0 (List.hd nodes);
  Alcotest.(check bool) "failed over to node 2" true (List.mem 2 nodes);
  Alcotest.(check bool) "went no further than the first up node" false
    (List.mem 3 nodes || List.mem 4 nodes);
  Alcotest.(check int) "back home after the restart" 0
    (List.nth nodes (List.length nodes - 1))

let test_faults_in_order () =
  let fk = fake 5 in
  let faults = Load.faults ~n:5 ~f:2 ~crash_at:0.05 ~restart_at:0.1 [ 3; 1 ] in
  let r = run ~clients:2 ~faults fk in
  let faults_seen =
    List.filter (function Op _ -> false | _ -> true) (fk.events ())
  in
  Alcotest.(check bool) "crash, then restart, once per victim, in order"
    true
    (faults_seen = [ Crash 3; Crash 1; Restart 3; Restart 1 ]);
  Alcotest.(check (list int)) "report: crashed" [ 3; 1 ] r.crashed;
  Alcotest.(check (list int)) "report: restarted" [ 3; 1 ] r.restarted

(* Intake stops once [halted] turns true, and the fault plan still due
   is skipped rather than waited out. *)
let test_halt_stops_intake () =
  let fk = fake ~halt_after:40 3 in
  let faults = Load.faults ~n:3 ~f:1 ~crash_at:4.0 [ 2 ] in
  let r = run ~clients:2 ~secs:8.0 ~faults fk in
  Alcotest.(check bool) "returned long before the window" true
    (r.duration < 2.0);
  Alcotest.(check bool) "at most one op per client after the halt" true
    (r.completed_updates + r.completed_scans <= 40 + 2);
  Alcotest.(check (list int)) "the late crash never fired" [] r.crashed

let test_plan_validation () =
  let rejects name f =
    match f () with
    | (_ : Load.faults) -> Alcotest.failf "%s: plan accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "k > f" (fun () -> Load.faults ~n:5 ~f:2 ~crash_at:0.1 [ 0; 1; 2 ]);
  rejects "id below range" (fun () -> Load.faults ~n:5 ~f:2 ~crash_at:0.1 [ -1 ]);
  rejects "id above range" (fun () -> Load.faults ~n:5 ~f:2 ~crash_at:0.1 [ 5 ]);
  rejects "restart at the crash" (fun () ->
      Load.faults ~n:5 ~f:2 ~crash_at:0.1 ~restart_at:0.1 [ 0 ]);
  rejects "restart before the crash" (fun () ->
      Load.faults ~n:5 ~f:2 ~crash_at:0.2 ~restart_at:0.1 [ 0 ]);
  let p = Load.faults ~n:5 ~f:2 ~crash_at:0.1 ~restart_at:0.2 [ 4; 0 ] in
  Alcotest.(check (list int)) "a valid plan keeps its order" [ 4; 0 ]
    p.victims

let suites =
  let case name f = Alcotest.test_case name `Quick f in
  [
    ( "load",
      [
        case "update values are unique across clients" test_unique_values;
        case "failover to the next up node, then home" test_failover_and_return;
        case "crash and restart once per victim, in order" test_faults_in_order;
        case "halted deployment stops intake" test_halt_stops_intake;
        case "fault plan validation" test_plan_validation;
      ] );
  ]
