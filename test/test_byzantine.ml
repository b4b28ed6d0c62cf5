(* Reliable broadcast properties (validity, FIFO, agreement under
   equivocation) and Byzantine EQ-ASO: correct nodes' histories stay
   linearizable under every scripted adversary. *)

(* --- standalone RBC network ---------------------------------------- *)

type rbc_net = {
  engine : Sim.Engine.t;
  net : string Byzantine.Rbc.wire Sim.Network.t;
  rbcs : string Byzantine.Rbc.t array;
  delivered : (int * string) list ref array;  (* per node: (src, payload) *)
}

let make_rbc_net ?(n = 4) ?(f = 1) ?(seed = 1L) () =
  let engine = Sim.Engine.create ~seed () in
  let net = Sim.Network.create engine ~n ~delay:(Sim.Delay.fixed 1.0) in
  let delivered = Array.init n (fun _ -> ref []) in
  let rbcs =
    Array.init n (fun me ->
        Byzantine.Rbc.create ~n ~f ~me
          ~send_wire:(fun ~dst wire -> Sim.Network.send net ~src:me ~dst wire)
          ~deliver:(fun ~src payload ->
            delivered.(me) := (src, payload) :: !(delivered.(me)))
          ())
  in
  Array.iteri
    (fun me rbc ->
      Sim.Network.set_handler net me (fun ~src wire ->
          Byzantine.Rbc.handle rbc ~src wire))
    rbcs;
  { engine; net; rbcs; delivered }

let deliveries t node = List.rev !(t.delivered.(node))

let test_rbc_validity () =
  let t = make_rbc_net () in
  Byzantine.Rbc.broadcast t.rbcs.(0) "hello";
  Sim.Engine.run t.engine;
  for node = 0 to 3 do
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "node %d delivered" node)
      [ (0, "hello") ] (deliveries t node)
  done

let test_rbc_fifo () =
  let t = make_rbc_net () in
  Byzantine.Rbc.broadcast t.rbcs.(2) "a";
  Byzantine.Rbc.broadcast t.rbcs.(2) "b";
  Byzantine.Rbc.broadcast t.rbcs.(2) "c";
  Sim.Engine.run t.engine;
  for node = 0 to 3 do
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "node %d in order" node)
      [ (2, "a"); (2, "b"); (2, "c") ]
      (deliveries t node)
  done

let test_rbc_no_delivery_without_quorum () =
  (* A fabricated READY from a single Byzantine node must not cause
     delivery. *)
  let t = make_rbc_net () in
  Sim.Network.send t.net ~src:3 ~dst:0
    (Byzantine.Rbc.Ready { origin = 1; seq = 0; payload = "forged" });
  Sim.Engine.run t.engine;
  Alcotest.(check (list (pair int string))) "nothing delivered" []
    (deliveries t 0)

let test_rbc_agreement_under_equivocation () =
  (* Node 3 sends SEND("x") to nodes 0,1 and SEND("y") to node 2 for the
     same slot. All correct nodes must deliver the same payload (or
     none). *)
  List.iter
    (fun seed ->
      let t = make_rbc_net ~seed () in
      Sim.Network.send t.net ~src:3 ~dst:0
        (Byzantine.Rbc.Send { seq = 0; payload = "x" });
      Sim.Network.send t.net ~src:3 ~dst:1
        (Byzantine.Rbc.Send { seq = 0; payload = "x" });
      Sim.Network.send t.net ~src:3 ~dst:2
        (Byzantine.Rbc.Send { seq = 0; payload = "y" });
      Sim.Engine.run t.engine;
      let outcomes =
        List.filter_map
          (fun node ->
            match deliveries t node with
            | [] -> None
            | [ (3, p) ] -> Some p
            | other ->
                Alcotest.failf "node %d delivered %d messages" node
                  (List.length other))
          [ 0; 1; 2 ]
      in
      match List.sort_uniq String.compare outcomes with
      | [] | [ _ ] -> ()
      | _ -> Alcotest.fail "correct nodes delivered different payloads")
    [ 1L; 2L; 3L; 4L ]

let test_rbc_delivery_despite_silent_node () =
  let t = make_rbc_net () in
  (* Node 3 is silent: drop its handler. *)
  Sim.Network.set_handler t.net 3 (fun ~src:_ _ -> ());
  Byzantine.Rbc.broadcast t.rbcs.(0) "m";
  Sim.Engine.run t.engine;
  for node = 0 to 2 do
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "node %d delivered" node)
      [ (0, "m") ] (deliveries t node)
  done

let test_rbc_fifo_gap_held_back () =
  (* A later slot completing before an earlier one must be buffered: we
     inject a full SEND for (2, seq 1) while (2, seq 0) is withheld,
     then release seq 0 — deliveries must come out 0 then 1. *)
  let t = make_rbc_net () in
  Byzantine.Rbc.broadcast t.rbcs.(2) "zero";
  Byzantine.Rbc.broadcast t.rbcs.(2) "one";
  (* Delay the seq-0 traffic by crashing nothing — instead simulate with
     direct handling: feed node 0 the seq-1 send first, seq-0 later. *)
  let rbc0 = t.rbcs.(0) in
  ignore rbc0;
  Sim.Engine.run t.engine;
  List.iter
    (fun node ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "node %d FIFO even with both in flight" node)
        [ (2, "zero"); (2, "one") ]
        (deliveries t node))
    [ 0; 1; 3 ];
  (* And the pure component-level check: handle wires out of order. *)
  let held = ref [] in
  let rbc =
    Byzantine.Rbc.create ~n:4 ~f:1 ~me:0
      ~send_wire:(fun ~dst:_ _ -> ())
      ~deliver:(fun ~src payload -> held := (src, payload) :: !held)
      ()
  in
  let feed seq payload =
    Byzantine.Rbc.handle rbc ~src:2 (Byzantine.Rbc.Send { seq; payload });
    for voter = 1 to 3 do
      Byzantine.Rbc.handle rbc ~src:voter
        (Byzantine.Rbc.Echo { origin = 2; seq; payload });
      Byzantine.Rbc.handle rbc ~src:voter
        (Byzantine.Rbc.Ready { origin = 2; seq; payload })
    done
  in
  feed 1 "later";
  Alcotest.(check (list (pair int string))) "seq 1 held back" [] !held;
  feed 0 "earlier";
  Alcotest.(check (list (pair int string))) "flushed in order"
    [ (2, "earlier"); (2, "later") ]
    (List.rev !held)

(* --- Byzantine EQ-ASO ---------------------------------------------- *)

let n = 7
let f = 2

let run_byz ?(seed = 1L) ~behave ~workload () =
  let engine = Sim.Engine.create ~seed () in
  let t = Byzantine.Byz_eq_aso.create engine ~n ~f ~delay:(Sim.Delay.fixed 1.0) in
  behave engine t;
  let history = History.create () in
  let next_value = ref 1 in
  Array.iteri
    (fun node steps ->
      if steps <> [] then
        Sim.Fiber.spawn engine (fun () ->
            List.iter
              (fun (gap, op) ->
                if gap > 0. then Sim.Fiber.sleep engine gap;
                match op with
                | `Update ->
                    let value = !next_value in
                    incr next_value;
                    let rop =
                      History.begin_update history
                        ~now:(Sim.Engine.now engine) ~node ~value
                    in
                    Byzantine.Byz_eq_aso.update t ~node value;
                    History.finish_update history ~now:(Sim.Engine.now engine)
                      rop
                | `Scan ->
                    let rop =
                      History.begin_scan history ~now:(Sim.Engine.now engine)
                        ~node
                    in
                    let snap = Byzantine.Byz_eq_aso.scan t ~node in
                    History.finish_scan history ~now:(Sim.Engine.now engine)
                      rop ~snap)
              steps))
    workload;
  Sim.Engine.run_until_quiescent engine;
  (* All operations at correct nodes terminated. *)
  Alcotest.(check int) "no pending operations" 0
    (List.length (History.pending history));
  (match Checker.Feed.check ~mode:Obs.Monitor.Atomic ~n history with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "conditions: %a" Obs.Monitor.pp_violation v);
  match Checker.Linearize.linearize ~n history with
  | Ok _ -> history
  | Error e -> Alcotest.failf "linearize: %s" e

(* correct nodes 0..4 do work; 5 and 6 are adversary slots *)
let standard_workload =
  let w = Array.make n [] in
  w.(0) <- [ (0.0, `Update); (1.0, `Scan) ];
  w.(1) <- [ (0.5, `Update); (0.0, `Scan) ];
  w.(2) <- [ (2.0, `Scan); (0.0, `Update) ];
  w.(3) <- [ (4.0, `Update) ];
  w.(4) <- [ (9.0, `Scan) ];
  w

let no_adversary _engine _t = ()

let test_byz_failure_free () =
  let history =
    run_byz ~behave:no_adversary ~workload:standard_workload ()
  in
  Alcotest.(check int) "all ops recorded" 8
    (List.length (History.completed history))

let test_byz_silent_nodes () =
  let behave _engine t =
    Byzantine.Behaviors.silent t ~node:5;
    Byzantine.Behaviors.silent t ~node:6
  in
  ignore (run_byz ~behave ~workload:standard_workload ())

let test_byz_tag_flooder () =
  let behave engine t =
    Byzantine.Behaviors.tag_flooder t engine ~node:5 ~bursts:5 ~gap:2.0
  in
  ignore (run_byz ~behave ~workload:standard_workload ())

let test_byz_equivocator () =
  let behave _engine t =
    Byzantine.Behaviors.equivocator t ~node:5 ~value_a:900001 ~value_b:900002
  in
  (* The equivocated value may appear in scans; it is not in the
     recorded history, so exclude segment 5 by construction: correct
     nodes write values 1..; the checker would reject a value that no
     update wrote. We therefore check agreement manually: every scan
     shows the same value in segment 5. *)
  let engine = Sim.Engine.create ~seed:5L () in
  let t = Byzantine.Byz_eq_aso.create engine ~n ~f ~delay:(Sim.Delay.fixed 1.0) in
  behave engine t;
  let snaps = ref [] in
  List.iter
    (fun node ->
      Sim.Fiber.spawn engine (fun () ->
          Sim.Fiber.sleep engine (float_of_int node);
          snaps := Byzantine.Byz_eq_aso.scan t ~node :: !snaps))
    [ 0; 1; 2; 3 ];
  Sim.Engine.run_until_quiescent engine;
  let seg5 = List.map (fun s -> s.(5)) !snaps in
  let distinct =
    List.sort_uniq compare (List.filter_map Fun.id seg5)
  in
  Alcotest.(check bool) "at most one equivocated value survives" true
    (List.length distinct <= 1)

let test_byz_forger_rejected () =
  let behave _engine t =
    Byzantine.Behaviors.forger t ~node:5 ~victim:0 ~value:777777
  in
  let history = run_byz ~behave ~workload:standard_workload () in
  (* Victim node 0's segment must only ever show node 0's real values:
     the checker already rejects foreign values; double-check none of
     the scans contain 777777. *)
  List.iter
    (fun (op : History.op) ->
      if History.is_scan op && op.resp <> None then
        Array.iter
          (fun v ->
            Alcotest.(check bool) "forged value never visible" true
              (v <> Some 777777))
          (History.scan_result op))
    (History.completed history)

let test_byz_phantom_forwarder () =
  let behave _engine t = Byzantine.Behaviors.phantom_forwarder t ~node:6 in
  ignore (run_byz ~behave ~workload:standard_workload ())

let test_byz_anchor_consistency () =
  (* A Byzantine writer reuses one timestamp for two different values in
     consecutive slots of its own reliable-broadcast stream. FIFO
     delivery makes every correct node anchor the same (first) value, so
     scans agree on segment 5's content. *)
  let engine = Sim.Engine.create ~seed:31L () in
  let t =
    Byzantine.Byz_eq_aso.create engine ~n ~f ~delay:(Sim.Delay.fixed 1.0)
  in
  let net = Byzantine.Byz_eq_aso.net t in
  Byzantine.Behaviors.silent t ~node:5;
  let ts = Timestamp.make ~tag:1 ~writer:5 in
  (* a correct update first, so tags exist and scans run at tag >= 1 *)
  Sim.Fiber.spawn engine (fun () -> Byzantine.Byz_eq_aso.update t ~node:0 7);
  (* two Sends on consecutive slots, same ts, different values *)
  for node = 0 to n - 1 do
    Sim.Network.send net ~src:5 ~dst:node
      (Byzantine.Byz_eq_aso.Msg.Rbc
         (Byzantine.Rbc.Send
            { seq = 0; payload = Byzantine.Byz_eq_aso.Value { ts; value = 111 } }));
    Sim.Network.send net ~src:5 ~dst:node
      (Byzantine.Byz_eq_aso.Msg.Rbc
         (Byzantine.Rbc.Send
            { seq = 1; payload = Byzantine.Byz_eq_aso.Value { ts; value = 222 } }))
  done;
  let snaps = ref [] in
  List.iter
    (fun node ->
      Sim.Fiber.spawn engine (fun () ->
          Sim.Fiber.sleep engine (15.0 +. (2.0 *. float_of_int node));
          snaps := Byzantine.Byz_eq_aso.scan t ~node :: !snaps))
    [ 0; 1; 2; 3 ];
  Sim.Engine.run_until_quiescent engine;
  let seg5 = List.filter_map (fun s -> s.(5)) !snaps in
  (match List.sort_uniq compare seg5 with
  | [] -> Alcotest.fail "value never anchored"
  | [ v ] -> Alcotest.(check int) "first anchor wins everywhere" 111 v
  | _ -> Alcotest.fail "nodes anchored different values for one timestamp")

let case name fn = Alcotest.test_case name `Quick fn

let suites =
  [
    ( "byzantine.rbc",
      [
        case "validity" test_rbc_validity;
        case "fifo per sender" test_rbc_fifo;
        case "no delivery without quorum" test_rbc_no_delivery_without_quorum;
        case "agreement under equivocation"
          test_rbc_agreement_under_equivocation;
        case "delivery despite silent node"
          test_rbc_delivery_despite_silent_node;
        case "fifo gap held back" test_rbc_fifo_gap_held_back;
      ] );
    ( "byzantine.eq_aso",
      [
        case "failure-free linearizable" test_byz_failure_free;
        case "silent byzantine nodes" test_byz_silent_nodes;
        case "tag flooder" test_byz_tag_flooder;
        case "equivocator: scans agree" test_byz_equivocator;
        case "forger rejected" test_byz_forger_rejected;
        case "phantom forwarder harmless" test_byz_phantom_forwarder;
        case "anchor consistency under ts reuse" test_byz_anchor_consistency;
      ] );
  ]
