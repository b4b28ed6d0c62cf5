(* The crash-recovery layer: write-ahead log format (torn-tail
   detection, longest-valid-prefix replay), durable stores, monitor
   restart semantics, and end-to-end sim crash-restart runs with the
   full battery checked across the restart. *)

module LC = Aso_core.Lattice_core

let qcase t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Log format: encode/decode round-trip, torn-write matrix, corruption. *)

let record_arb =
  QCheck.make
    QCheck.Gen.(
      oneof
        [
          return Persist.Record.Restart;
          map3
            (fun tag writer value ->
              Persist.Record.Entry { tag; writer; value })
            (int_range 0 10_000) (int_range 0 64) int;
        ])

let log_of records =
  Persist.Log.magic ^ "\n"
  ^ String.concat "" (List.map Persist.Log.frame records)

let roundtrip_qcheck =
  QCheck.Test.make ~count:200 ~name:"log encode/decode round-trips"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 40) record_arb)
    (fun records ->
      match Persist.Log.replay_string (log_of records) with
      | Error e -> QCheck.Test.fail_reportf "replay failed: %s" e
      | Ok { records = got; tail } ->
          got = records && tail = Persist.Log.Clean)

(* Truncate at EVERY byte boundary inside the last record's frame: the
   replay must recover exactly the records before it, and report the
   tail torn (except at the full length, which is clean). *)
let test_torn_matrix () =
  let prefix =
    [
      Persist.Record.Entry { tag = 1; writer = 0; value = 17 };
      Persist.Record.Restart;
      Persist.Record.Entry { tag = 2; writer = 1; value = -4 };
    ]
  in
  let last = Persist.Record.Entry { tag = 3; writer = 0; value = 123456 } in
  let body = log_of prefix in
  let frame = Persist.Log.frame last in
  let full = body ^ frame in
  for cut = String.length body to String.length full do
    let s = String.sub full 0 cut in
    match Persist.Log.replay_string s with
    | Error e -> Alcotest.failf "cut %d: replay failed: %s" cut e
    | Ok { records; tail } ->
        if cut = String.length full then (
          Alcotest.(check bool)
            "full log replays everything" true
            (records = prefix @ [ last ]);
          Alcotest.(check bool) "full log is clean" true (tail = Persist.Log.Clean))
        else if cut = String.length body then (
          (* zero bytes of the last frame: not torn, just shorter *)
          Alcotest.(check bool) "cut at body: prefix" true (records = prefix);
          Alcotest.(check bool) "cut at body: clean" true
            (tail = Persist.Log.Clean))
        else begin
          Alcotest.(check bool)
            (Printf.sprintf "cut %d: longest valid prefix" cut)
            true (records = prefix);
          match tail with
          | Persist.Log.Torn { valid; dropped_bytes } ->
              Alcotest.(check int)
                (Printf.sprintf "cut %d: valid offset" cut)
                (String.length body) valid;
              Alcotest.(check int)
                (Printf.sprintf "cut %d: dropped bytes" cut)
                (cut - String.length body) dropped_bytes
          | Persist.Log.Clean ->
              Alcotest.failf "cut %d: truncated frame reported clean" cut
        end
  done

let test_corrupt_byte () =
  let records =
    [
      Persist.Record.Entry { tag = 1; writer = 0; value = 5 };
      Persist.Record.Entry { tag = 2; writer = 1; value = 6 };
    ]
  in
  let s = Bytes.of_string (log_of records) in
  (* Flip a byte inside the LAST frame's payload: checksum must catch it
     and the replay must fall back to the first record. *)
  let pos = Bytes.length s - 3 in
  Bytes.set s pos (if Bytes.get s pos = 'x' then 'y' else 'x');
  match Persist.Log.replay_string (Bytes.to_string s) with
  | Error e -> Alcotest.fail e
  | Ok { records = got; tail } ->
      Alcotest.(check bool)
        "only the uncorrupted prefix survives" true
        (got = [ List.hd records ]);
      Alcotest.(check bool) "tail reported torn" true
        (match tail with Persist.Log.Torn _ -> true | Clean -> false)

let test_not_a_log () =
  match Persist.Log.replay_string "hello world\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a non-log"

(* ------------------------------------------------------------------ *)
(* Stores: mem with lost suffix; file-backed persistence. *)

let test_mem_store_lose_suffix () =
  let m = Persist.Store.mem () in
  let s = Persist.Store.mem_store m in
  for i = 1 to 5 do
    Persist.Store.append s (Persist.Record.Entry { tag = i; writer = 0; value = i })
  done;
  Alcotest.(check int) "size" 5 (Persist.Store.size s);
  Persist.Store.lose_suffix m 2;
  let got = Persist.Store.read s in
  Alcotest.(check int) "suffix dropped" 3 (List.length got);
  Alcotest.(check bool)
    "surviving prefix is the oldest records" true
    (got
    = List.init 3 (fun i ->
          Persist.Record.Entry { tag = i + 1; writer = 0; value = i + 1 }))

let test_file_store_roundtrip () =
  let path = Filename.temp_file "aso-wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = Persist.Store.file path in
      let records =
        [
          Persist.Record.Entry { tag = 1; writer = 2; value = 10 };
          Persist.Record.Restart;
          Persist.Record.Entry { tag = 2; writer = 2; value = 11 };
        ]
      in
      List.iter (Persist.Store.append s) records;
      Alcotest.(check bool) "read back" true (Persist.Store.read s = records);
      (* A second store on the same path sees the appended records — the
         durability a restart relies on. *)
      let s2 = Persist.Store.file path in
      Alcotest.(check bool) "reopened" true (Persist.Store.read s2 = records);
      (* Appending after the reopen extends the same log: no second
         header mid-file, so replay keeps every record and ends clean. *)
      let more = Persist.Record.Entry { tag = 3; writer = 2; value = 12 } in
      Persist.Store.append s2 more;
      match Persist.Log.replay_file path with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check bool) "records across the reopen" true
            (r.records = records @ [ more ]);
          Alcotest.(check bool) "clean tail" true (r.tail = Persist.Log.Clean))

(* ------------------------------------------------------------------ *)
(* Monitor restart semantics. *)

let feed_ok m ev =
  match Obs.Monitor.feed m ev with
  | Ok () -> ()
  | Error v -> Alcotest.failf "unexpected violation: %a" Obs.Monitor.pp_violation v

let test_monitor_abort_then_respond () =
  let m = Obs.Monitor.create ~n:2 () in
  feed_ok m (Obs.Monitor.Invoke { id = 0; node = 0; at = 0.; op = Obs.Monitor.Update 7 });
  feed_ok m (Obs.Monitor.Crash { node = 0; at = 1. });
  feed_ok m (Obs.Monitor.Abort { id = 0; at = 2. });
  feed_ok m (Obs.Monitor.Restart { node = 0; at = 2. });
  (* The aborted operation must never respond: restart is not
     resurrection. *)
  match Obs.Monitor.feed m (Obs.Monitor.Respond_update { id = 0; at = 3. }) with
  | Ok () -> Alcotest.fail "resurrected response accepted"
  | Error v -> Alcotest.(check string) "wf violation" "wf" v.condition

let test_monitor_restart_of_live_node () =
  let m = Obs.Monitor.create ~n:2 () in
  match Obs.Monitor.feed m (Obs.Monitor.Restart { node = 1; at = 0. }) with
  | Ok () -> Alcotest.fail "restart of a live node accepted"
  | Error v -> Alcotest.(check string) "wf violation" "wf" v.condition

let test_monitor_across_restart () =
  (* crash -> abort -> restart -> fresh ops by the same node id: all
     accepted, and the crash count keeps the cumulative k. *)
  let m = Obs.Monitor.create ~n:2 () in
  feed_ok m (Obs.Monitor.Invoke { id = 0; node = 0; at = 0.; op = Obs.Monitor.Update 1 });
  feed_ok m (Obs.Monitor.Respond_update { id = 0; at = 1. });
  feed_ok m (Obs.Monitor.Invoke { id = 1; node = 0; at = 2.; op = Obs.Monitor.Update 2 });
  feed_ok m (Obs.Monitor.Crash { node = 0; at = 3. });
  feed_ok m (Obs.Monitor.Abort { id = 1; at = 5. });
  feed_ok m (Obs.Monitor.Restart { node = 0; at = 5. });
  feed_ok m (Obs.Monitor.Invoke { id = 2; node = 0; at = 6.; op = Obs.Monitor.Scan });
  feed_ok m
    (Obs.Monitor.Respond_scan { id = 2; at = 7.; snap = [| Some 1; None |] });
  Alcotest.(check int) "k is cumulative" 1 (Obs.Monitor.crashes m)

(* ------------------------------------------------------------------ *)
(* Sim crash-restart end-to-end: the node crashes mid-run, restarts,
   replays its log, rejoins through the quorum pull, and the harness
   drives post-restart traffic — with the online monitor attached and
   the batch battery checked across the restart. *)

let steps ops = List.map (fun op -> { Harness.Workload.gap = 1.0; op }) ops

let crash_restart_workload n =
  Array.init n (fun i ->
      if i = 0 then
        steps [ Harness.Workload.Update; Harness.Workload.Update ]
      else steps [ Harness.Workload.Update; Harness.Workload.Scan ])

let run_crash_restart ?configure ?substrate ~make ~mode n =
  let monitor = Obs.Monitor.create ~n () in
  let config =
    {
      Harness.Runner.n;
      f = Quorum.max_crash_faults n;
      delay = Harness.Runner.Fixed_d 1.0;
      seed = 7L;
    }
  in
  let outcome =
    Harness.Runner.run ?configure ?substrate ~monitor ~make config
      ~workload:(crash_restart_workload n)
      ~adversary:(Harness.Adversary.Crash_restart_at [ (3.5, 0, 12.0) ])
  in
  (match Checker.Batch.check mode outcome.history with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("battery failed across restart: " ^ e));
  (* The runner's post-restart traffic ran at node 0: its history holds
     completed operations invoked after the restart time. *)
  let post_restart =
    List.filter
      (fun (op : History.op) -> op.node = 0 && op.inv > 12.0)
      (History.completed outcome.history)
  in
  Alcotest.(check bool)
    "restarted node served operations" true
    (List.length post_restart >= 2);
  Alcotest.(check bool)
    "the pre-crash pending op was aborted, not resurrected" true
    (History.pending outcome.history = []);
  outcome

(* The lossy stack restarts a node as a new transport incarnation; the
   protocol's rejoin must hold over it exactly as over ideal channels. *)
let lossy = Sim.Network.Lossy { drop = 0.2; dup = 0.1; reorder = 0.1 }

let test_eq_aso_crash_restart () =
  List.iter
    (fun substrate ->
      let (_ : Harness.Runner.outcome) =
        run_crash_restart ~substrate ~make:Harness.Algo.eq_aso.make
          ~mode:Harness.Algo.eq_aso.consistency 5
      in
      ())
    [ Sim.Network.Ideal; lossy ]

(* Ideal substrate only for now: over [lossy] this run can hit the
   restart checker gap (ROADMAP item 1) — an aborted update that no scan
   observed is counted as taken effect, and Sequential mode reports a
   false (S2). It joins the lossy input once that gap is closed. *)
let test_sso_crash_restart () =
  let (_ : Harness.Runner.outcome) =
    run_crash_restart ~make:Harness.Algo.sso.make
      ~mode:Harness.Algo.sso.consistency 5
  in
  ()

(* Lost-suffix arm: between the crash and the restart, the tail of the
   victim's log evaporates (a torn write). The battery must still hold —
   the write-ahead discipline plus the mint fence make the log's loss
   invisible to A0-A4 (lost mints are re-learned from peers; their tags
   are never re-minted). *)
let test_eq_aso_crash_restart_lost_suffix () =
  let mems = ref None in
  let make engine ~n ~f ~delay =
    let t = Aso_core.Eq_aso.create engine ~n ~f ~delay in
    let stores = Array.init n (fun _ -> Persist.Store.mem ()) in
    Array.iteri
      (fun i m ->
        LC.set_store (LC.node (Aso_core.Eq_aso.core t) i)
          (Persist.Store.mem_store m))
      stores;
    mems := Some stores;
    Aso_core.Eq_aso.instance t
  in
  let configure engine _instance =
    (* After the crash (t = 3.5), before the restart (t = 12): drop the
       newest two records from node 0's log. *)
    Sim.Engine.schedule engine ~delay:6.0 (fun () ->
        match !mems with
        | Some stores -> Persist.Store.lose_suffix stores.(0) 2
        | None -> Alcotest.fail "make never ran")
  in
  let (_ : Harness.Runner.outcome) =
    run_crash_restart ~configure ~make ~mode:Obs.Monitor.Atomic 5
  in
  ()

(* ------------------------------------------------------------------ *)
(* Model checker: an exhaustive-ish sweep with a restart arm must find
   zero violations — restart choice points are schedule choices like any
   other, and no interleaving of crash, recovery and traffic breaks
   A0-A4. *)

let test_mc_restart_sweep_no_false_positives () =
  List.iter
    (fun substrate ->
      let spec =
        {
          Mc.Replay.default_spec with
          workload = Mc.Replay.Pair { updater = 0; scanner = 1; gap = 4.0 };
          substrate;
          crashes = [ (0, [| -1; 2; 5 |]) ];
          restarts = [ (0, [| -1; 8; 12 |]) ];
        }
      in
      match Mc.Replay.to_sys spec with
      | Error e -> Alcotest.fail e
      | Ok sys -> (
          let report =
            Mc.Explore.explore sys
              (Mc.Explore.Dfs { max_schedules = 250; max_depth = 30 })
          in
          Alcotest.(check bool)
            "explored a real space" true (report.schedules > 50);
          match report.violation with
          | None -> ()
          | Some v ->
              Alcotest.failf "false positive under crash-restart: %s"
                v.message))
    [ Sim.Network.Ideal; lossy ]

(* Replay round-trip of the restart arm: a spec with restart choice
   points survives save/load and rebuilds the same system. *)
let test_replay_restart_lines () =
  let spec =
    {
      Mc.Replay.default_spec with
      crashes = [ (0, [| -1; 3 |]) ];
      restarts = [ (0, [| -1; 9 |]); (1, [| -1 |]) ];
      choices = [ 1; 1 ];
    }
  in
  let file = Filename.temp_file "aso-restart" ".replay" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Mc.Replay.save file spec;
      match Mc.Replay.load file with
      | Error e -> Alcotest.fail e
      | Ok spec' ->
          Alcotest.(check bool) "restarts round-trip" true (spec = spec'))

let suites =
  [
    ( "persist",
      [
        qcase roundtrip_qcheck;
        Alcotest.test_case "torn-write matrix: every byte boundary" `Quick
          test_torn_matrix;
        Alcotest.test_case "checksum catches a flipped byte" `Quick
          test_corrupt_byte;
        Alcotest.test_case "missing magic is an error" `Quick test_not_a_log;
        Alcotest.test_case "mem store lost suffix" `Quick
          test_mem_store_lose_suffix;
        Alcotest.test_case "file store persists across reopen" `Quick
          test_file_store_roundtrip;
      ] );
    ( "crash-restart",
      [
        Alcotest.test_case "monitor: abort forbids resurrection" `Quick
          test_monitor_abort_then_respond;
        Alcotest.test_case "monitor: restart of a live node fails" `Quick
          test_monitor_restart_of_live_node;
        Alcotest.test_case "monitor: clean crash-abort-restart cycle" `Quick
          test_monitor_across_restart;
        Alcotest.test_case "eq-aso: restart rejoins and linearizes" `Quick
          test_eq_aso_crash_restart;
        Alcotest.test_case "sso: restart rejoins, S1-S3 hold" `Quick
          test_sso_crash_restart;
        Alcotest.test_case "eq-aso: restart with a lost log suffix" `Quick
          test_eq_aso_crash_restart_lost_suffix;
        Alcotest.test_case "mc: restart arm sweep, zero false positives"
          `Quick test_mc_restart_sweep_no_false_positives;
        Alcotest.test_case "replay file: restart lines round-trip" `Quick
          test_replay_restart_lines;
      ] );
  ]
