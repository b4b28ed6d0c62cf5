(* The tag machinery of Algorithm 1: readTag/writeTag quorum phases,
   echo propagation, the unconditional-ack reading of lines 43-46, good
   lattice operations and the borrowed-view table, plus generalized
   lattice agreement built on the same core. *)

module LC = Aso_core.Lattice_core

let with_core ?(n = 5) ?(f = 2) ?(seed = 1L) body =
  let engine = Sim.Engine.create ~seed () in
  let core = LC.create engine ~n ~f ~delay:(Sim.Delay.fixed 1.0) in
  body engine core;
  Sim.Engine.run_until_quiescent engine

let test_read_tag_initial () =
  let tag = ref (-1) in
  with_core (fun engine core ->
      Sim.Fiber.spawn engine (fun () ->
          tag := LC.read_tag core (LC.node core 0)));
  Alcotest.(check int) "initial tag is 0" 0 !tag

let test_write_then_read_tag () =
  let tag = ref (-1) in
  with_core (fun engine core ->
      Sim.Fiber.spawn engine (fun () ->
          let nd = LC.node core 1 in
          let ok, _ = LC.lattice core nd 7 in
          Alcotest.(check bool) "lattice(7) good in quiet system" true ok;
          Sim.Fiber.sleep engine 5.0;
          tag := LC.read_tag core (LC.node core 1)));
  Alcotest.(check int) "tag visible via readTag" 7 !tag

let test_echo_spreads_tag () =
  (* A tag written by one node becomes visible to readTag at every
     other node (echoTag flooding), even one not in the write quorum. *)
  let tag = ref (-1) in
  with_core ~n:5 (fun engine core ->
      Sim.Fiber.spawn engine (fun () ->
          let ok, _ = LC.lattice core (LC.node core 0) 3 in
          Alcotest.(check bool) "good" true ok);
      Sim.Fiber.spawn engine (fun () ->
          Sim.Fiber.sleep engine 10.0;
          tag := LC.read_tag core (LC.node core 4)));
  Alcotest.(check int) "echoed tag" 3 !tag

let test_write_tag_acked_when_stale () =
  (* Line 43-46 ambiguity: acks must flow even for tags <= maxTag, or a
     writer of a known tag would block forever. *)
  let completed = ref false in
  with_core (fun engine core ->
      Sim.Fiber.spawn engine (fun () ->
          let nd = LC.node core 0 in
          let _ = LC.lattice core nd 5 in
          (* same tag again: every replica already has maxTag >= 5 *)
          let _ = LC.lattice core nd 5 in
          completed := true));
  Alcotest.(check bool) "stale writeTag still completes" true !completed

let test_lattice_fails_on_larger_tag () =
  let first = ref None and second = ref None in
  with_core (fun engine core ->
      Sim.Fiber.spawn engine (fun () ->
          let ok, _ = LC.lattice core (LC.node core 0) 2 in
          first := Some ok);
      Sim.Fiber.spawn engine (fun () ->
          (* concurrently write a larger tag so node 0 sees it before
             its EQ settles *)
          let ok, _ = LC.lattice core (LC.node core 1) 9 in
          second := Some ok));
  (* the tag-9 operation is good; the tag-2 one observed 9 and failed *)
  Alcotest.(check (option bool)) "tag-2 lattice not good" (Some false) !first;
  Alcotest.(check (option bool)) "tag-9 lattice good" (Some true) !second

let test_good_la_announcement_borrowable () =
  with_core (fun engine core ->
      Sim.Fiber.spawn engine (fun () ->
          let nd0 = LC.node core 0 in
          let ts = LC.fresh_timestamp core nd0 0 in
          LC.broadcast_value core nd0 ts 42;
          let ok, view = LC.lattice core nd0 1 in
          Alcotest.(check bool) "good" true ok;
          Alcotest.(check bool) "view has the value" true (View.mem ts view);
          (* after the goodLA circulates, a renewal at another node for
             the same tag can resolve; just check the renewal pipeline *)
          Sim.Fiber.sleep engine 5.0;
          let nd3 = LC.node core 3 in
          let view' = LC.lattice_renewal core nd3 1 in
          Alcotest.(check bool) "renewal view comparable" true
            (View.comparable view view')))

let test_sequential_node_guard () =
  with_core (fun engine core ->
      Sim.Fiber.spawn engine (fun () ->
          let nd = LC.node core 0 in
          LC.begin_op nd;
          Alcotest.check_raises "second op rejected"
            (Invalid_argument
               "Lattice_core: concurrent operation at a sequential node")
            (fun () -> LC.begin_op nd);
          LC.end_op nd;
          LC.begin_op nd;
          LC.end_op nd;
          ignore engine))

let test_stats_accounting () =
  let engine = Sim.Engine.create () in
  let core = LC.create engine ~n:3 ~f:1 ~delay:(Sim.Delay.fixed 1.0) in
  Sim.Fiber.spawn engine (fun () ->
      let _ = LC.lattice core (LC.node core 0) 1 in
      let _ = LC.lattice_renewal core (LC.node core 1) 1 in
      ());
  Sim.Engine.run_until_quiescent engine;
  let s = LC.stats core in
  Alcotest.(check int) "two+ lattice ops" 2 s.lattice_ops;
  Alcotest.(check int) "one direct view" 1 s.direct_views;
  Alcotest.(check int) "no indirect" 0 s.indirect_views

let test_msg_kinds () =
  Alcotest.(check string) "value" "value"
    (LC.Msg.kind (LC.Msg.Value { ts = Timestamp.make ~tag:1 ~writer:0; value = 0 }));
  Alcotest.(check string) "goodLA" "goodLA" (LC.Msg.kind (LC.Msg.Good_la { tag = 1 }));
  Alcotest.(check string) "writeTag" "writeTag"
    (LC.Msg.kind (LC.Msg.Write_tag { req = 0; tag = 1 }))

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "core.lattice_core",
      [
        case "read_tag initial" test_read_tag_initial;
        case "write then read tag" test_write_then_read_tag;
        case "echo spreads tags" test_echo_spreads_tag;
        case "stale writeTag acked" test_write_tag_acked_when_stale;
        case "lattice fails on larger tag" test_lattice_fails_on_larger_tag;
        case "goodLA borrowable" test_good_la_announcement_borrowable;
        case "sequential node guard" test_sequential_node_guard;
        case "stats accounting" test_stats_accounting;
        case "msg kinds" test_msg_kinds;
      ] );
  ]
