(* The conditions (A0)-(A4)/(S1)-(S3), decided by the monitor fold
   [Checker.Feed.check], and the Steps I-II construction, exercised on
   hand-built histories with known verdicts — including the paper's
   Figure 1 example. *)

let snap l = Array.of_list l

(* Build a history from a list of (node, kind, inv, resp). *)
type spec =
  | U of int * int * float * float  (* node, value, inv, resp *)
  | S of int * int option list * float * float  (* node, snap, inv, resp *)
  | Pending_u of int * int * float

let build specs =
  let h = History.create () in
  (* Sort by invocation time to get ids in invocation order, as the
     runner would. *)
  let inv_time = function
    | U (_, _, i, _) | S (_, _, i, _) | Pending_u (_, _, i) -> i
  in
  let specs = List.stable_sort (fun a b -> Float.compare (inv_time a) (inv_time b)) specs in
  let finishers =
    List.map
      (fun sp ->
        match sp with
        | U (node, value, inv, resp) ->
            let op = History.begin_update h ~now:inv ~node ~value in
            (resp, fun () -> History.finish_update h ~now:resp op)
        | S (node, sn, inv, resp) ->
            let op = History.begin_scan h ~now:inv ~node in
            (resp, fun () -> History.finish_scan h ~now:resp op ~snap:(snap sn))
        | Pending_u (node, value, inv) ->
            let _ = History.begin_update h ~now:inv ~node ~value in
            (infinity, fun () -> ()))
      specs
  in
  List.iter (fun (_, f) -> f ())
    (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) finishers);
  h

let check_ok = Alcotest.(check (result unit string))

let lin ~n h =
  Result.map (fun _ -> ()) (Checker.Linearize.linearize ~n h)

let seq ~n h =
  Result.map (fun _ -> ()) (Checker.Linearize.sequentialize ~n h)

(* Verdicts as "(condition) detail", so a test names the condition it
   expects by prefix. *)
let conditions mode ~n h =
  Result.map_error
    (fun (v : Obs.Monitor.violation) ->
      Printf.sprintf "(%s) %s" v.condition v.detail)
    (Checker.Feed.check ~mode ~n h)

let atomic = conditions Obs.Monitor.Atomic
let sequential = conditions Obs.Monitor.Sequential

(* --- Figure 1: the paper's worked example ------------------------- *)

(* Node 1: UPDATE(1) then UPDATE(4); node 2: UPDATE(2), UPDATE(3), and
   two scans. op1=UPDATE(1) completes before op2=UPDATE(2) begins. The
   history is linearizable: scans return [1;2] then [4;3]-ish vectors
   consistent with bases. We re-create the flavour: a sequentializable
   and linearizable history. *)
let figure1_history () =
  build
    [
      U (0, 1, 0.0, 1.0);
      (* op1 *)
      U (1, 2, 2.0, 3.0);
      (* op2 *)
      U (1, 3, 4.0, 5.0);
      (* op3 *)
      U (0, 4, 4.5, 6.5);
      (* op4, concurrent with op3/op5 *)
      S (1, [ Some 1; Some 2 ], 3.2, 3.9);
      (* sees op1, op2 *)
      S (0, [ Some 4; Some 3 ], 6.6, 7.0);
      (* sees everything *)
    ]

let test_figure1_linearizable () =
  let h = figure1_history () in
  check_ok "conditions hold" (Ok ()) (atomic ~n:2 h);
  check_ok "linearization exists" (Ok ()) (lin ~n:2 h);
  check_ok "sequentialization exists" (Ok ()) (seq ~n:2 h)

let test_linearization_is_legal_order () =
  let h = figure1_history () in
  match Checker.Linearize.linearize ~n:2 h with
  | Error e -> Alcotest.fail e
  | Ok order ->
      Alcotest.(check int) "all six ops placed" 6 (List.length order);
      (* The update of value 1 must appear before the scan returning it. *)
      let pos v =
        let rec find i = function
          | [] -> Alcotest.fail "op missing"
          | (op : History.op) :: rest ->
              if
                (History.is_update op && History.update_value op = v)
              then i
              else find (i + 1) rest
        in
        find 0 order
      in
      Alcotest.(check bool) "update 1 before update 4" true (pos 1 < pos 4)

(* --- violations --------------------------------------------------- *)

(* Two scans with incomparable bases: {u1} vs {u2}. *)
let test_a1_violation () =
  let h =
    build
      [
        U (0, 10, 0.0, 5.0);
        U (1, 20, 0.0, 5.0);
        S (2, [ Some 10; None; None; None ], 1.0, 2.0);
        S (3, [ None; Some 20; None; None ], 1.0, 2.0);
      ]
  in
  (match atomic ~n:4 h with
  | Error msg ->
      Alcotest.(check bool) "A1 reported" true
        (String.length msg >= 4 && String.sub msg 0 4 = "(A1)")
  | Ok () -> Alcotest.fail "expected A1 violation");
  (match lin ~n:4 h with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "linearize must fail too");
  (* Incomparable scan results are not sequentially consistent either. *)
  match sequential ~n:4 h with
  | Error msg ->
      Alcotest.(check bool) "S1 reported" true
        (String.length msg >= 4 && String.sub msg 0 4 = "(S1)")
  | Ok () -> Alcotest.fail "expected S1 violation"

(* A scan missing an update that completed before it: stale read. *)
let test_a2_violation () =
  let h =
    build
      [
        U (0, 10, 0.0, 1.0);
        S (1, [ None; None ], 2.0, 3.0);
      ]
  in
  (match atomic ~n:2 h with
  | Error msg ->
      Alcotest.(check bool) "A2 reported" true
        (String.length msg >= 4 && String.sub msg 0 4 = "(A2)")
  | Ok () -> Alcotest.fail "expected A2 violation");
  (* But it IS sequentially consistent: the scan can be ordered first. *)
  check_ok "sequentially consistent" (Ok ()) (sequential ~n:2 h);
  check_ok "sequentialization exists" (Ok ()) (seq ~n:2 h)

(* New-old inversion between two scans: A3. *)
let test_a3_violation () =
  let h =
    build
      [
        U (0, 10, 0.0, 10.0);
        (* update pending-ish long op; completes at 10 *)
        S (1, [ Some 10; None ], 1.0, 2.0);
        (* sees it (allowed: concurrent) *)
        S (1, [ None; None ], 3.0, 4.0);
        (* later scan loses it *)
      ]
  in
  match atomic ~n:2 h with
  | Error msg ->
      Alcotest.(check bool) "A3 or A1 reported" true
        (String.length msg >= 4
        && (String.sub msg 0 4 = "(A3)" || String.sub msg 0 4 = "(A1)"))
  | Ok () -> Alcotest.fail "expected A3 violation"

(* A base containing u2 but not the update u1 that precedes it. *)
let test_a4_violation () =
  let h =
    build
      [
        U (0, 10, 0.0, 1.0);
        (* u1 completes *)
        U (1, 20, 2.0, 3.0);
        (* u2 after u1 *)
        S (2, [ None; Some 20; None ], 10.0, 11.0);
        (* has u2, misses u1 *)
      ]
  in
  match atomic ~n:3 h with
  | Error msg ->
      (* A2 also catches this one (u1 precedes the scan); accept either. *)
      Alcotest.(check bool) "A4/A2 reported" true
        (String.length msg >= 4
        && (String.sub msg 0 4 = "(A4)" || String.sub msg 0 4 = "(A2)"))
  | Ok () -> Alcotest.fail "expected violation"

(* Pure A4: u1 concurrent with the scan (so A2 does not apply), but u2
   is in the base and u1 -> u2. *)
let test_a4_pure () =
  let h =
    build
      [
        U (0, 10, 0.0, 1.0);
        (* u1 *)
        U (1, 20, 2.0, 3.0);
        (* u2, u1 -> u2 *)
        S (2, [ None; Some 20; None ], 0.5, 11.0);
        (* starts before u1 ends: not bound by A2 for u1 *)
      ]
  in
  match atomic ~n:3 h with
  | Error msg ->
      Alcotest.(check bool) "A4 reported" true
        (String.length msg >= 4 && String.sub msg 0 4 = "(A4)")
  | Ok () -> Alcotest.fail "expected A4 violation"

let test_s2_read_your_writes () =
  (* Node 0 updates then scans ⊥: fine for atomicity only if the scan
     precedes... here scan is after, so it violates both A2 and S2. *)
  let h =
    build
      [
        U (0, 10, 0.0, 1.0);
        S (0, [ None; None ], 2.0, 3.0);
      ]
  in
  match sequential ~n:2 h with
  | Error msg ->
      Alcotest.(check bool) "S2 reported" true
        (String.length msg >= 4 && String.sub msg 0 4 = "(S2)")
  | Ok () -> Alcotest.fail "expected S2 violation"

let test_s3_monotone_scans () =
  let h =
    build
      [
        U (1, 10, 0.0, 10.0);
        (* concurrent with both scans *)
        S (0, [ None; Some 10 ], 1.0, 2.0);
        S (0, [ None; None ], 3.0, 4.0);
      ]
  in
  match sequential ~n:2 h with
  | Error msg ->
      Alcotest.(check bool) "S3 or S1 reported" true
        (String.length msg >= 4
        && (String.sub msg 0 4 = "(S3)" || String.sub msg 0 4 = "(S1)"))
  | Ok () -> Alcotest.fail "expected S3 violation"

let test_garbage_value_rejected () =
  let h = build [ S (0, [ Some 99; None ], 0.0, 1.0) ] in
  match atomic ~n:2 h with
  | Error msg ->
      Alcotest.(check bool) "A0 reported" true
        (String.length msg >= 4 && String.sub msg 0 4 = "(A0)")
  | Ok () -> Alcotest.fail "expected A0 violation"

let test_wrong_segment_rejected () =
  let h =
    build
      [ U (0, 10, 0.0, 1.0); S (1, [ None; Some 10 ], 2.0, 3.0) ]
  in
  (* value 10 written by node 0 shows up in segment 1 *)
  match atomic ~n:2 h with
  | Error msg ->
      Alcotest.(check bool) "A0 reported" true
        (String.length msg >= 4 && String.sub msg 0 4 = "(A0)")
  | Ok () -> Alcotest.fail "expected A0 violation"

let test_pending_update_visible () =
  (* An update cut off by a crash may still appear in scans — the
     history stays linearizable. *)
  let h =
    build
      [
        Pending_u (0, 10, 0.0);
        S (1, [ Some 10; None; None ], 5.0, 6.0);
        S (2, [ Some 10; None; None ], 7.0, 8.0);
      ]
  in
  check_ok "atomic" (Ok ()) (atomic ~n:3 h);
  check_ok "linearizes" (Ok ()) (lin ~n:3 h)

let test_empty_history () =
  let h = History.create () in
  check_ok "atomic" (Ok ()) (atomic ~n:3 h);
  check_ok "linearizes" (Ok ()) (lin ~n:3 h)

let test_a0_future_read () =
  (* A scan returning a value whose update began only after the scan
     responded: well-formed as a history, impossible to linearize. The
     paper's printed (A1)-(A4) do not exclude it (real executions cannot
     produce it); the checker's explicit (A0) does — a gap found by the
     exhaustive-search cross-validation (see test_wg.ml). *)
  let h =
    build
      [
        S (0, [ None; Some 10 ], 0.0, 1.0);
        U (1, 10, 2.0, 3.0);
      ]
  in
  (match atomic ~n:2 h with
  | Error msg ->
      Alcotest.(check bool) "A0 reported" true
        (String.length msg >= 4 && String.sub msg 0 4 = "(A0)")
  | Ok () -> Alcotest.fail "expected A0 violation");
  (match lin ~n:2 h with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "linearize must fail too");
  (* Without real time a legal order exists (the update first), so the
     sequential oracle accepts; the monitor's Sequential mode keeps (A0)
     and rejects — no real run can produce such a history. *)
  Alcotest.(check bool) "oracle: sequentializable" true
    (Checker.Wg.equivalent_sequential ~n:2 h);
  match sequential ~n:2 h with
  | Error msg ->
      Alcotest.(check bool) "sequential: A0 reported" true
        (String.length msg >= 4 && String.sub msg 0 4 = "(A0)")
  | Ok () -> Alcotest.fail "expected A0 violation in sequential mode"

let test_zero_duration_scan () =
  (* A scan that responds at the instant it was invoked (the SSO fast
     scan is local, so its sim scans take zero time) must still reach
     the monitor invoke-first. *)
  let h =
    build [ U (0, 1, 0.0, 1.0); S (1, [ Some 1; None ], 2.0, 2.0) ]
  in
  check_ok "atomic" (Ok ()) (atomic ~n:2 h);
  check_ok "sequential" (Ok ()) (sequential ~n:2 h)

let test_duplicate_values_rejected () =
  let h =
    build [ U (0, 10, 0.0, 1.0); U (1, 10, 2.0, 3.0) ]
  in
  match atomic ~n:2 h with
  | Error msg ->
      Alcotest.(check bool) "wf reported" true
        (String.length msg >= 4 && String.sub msg 0 4 = "(wf)")
  | Ok () -> Alcotest.fail "expected duplicate-value rejection"

let test_timeline_render () =
  let h =
    build
      [
        U (0, 1, 0.0, 2.0);
        S (1, [ Some 1; None ], 3.0, 5.0);
        Pending_u (1, 9, 6.0);
      ]
  in
  let s = Checker.Timeline.render ~width:40 h in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "has node lanes" true
    (String.length s > 0 && List.length (String.split_on_char '\n' s) >= 3);
  Alcotest.(check bool) "update label present" true (contains "U(1)" s);
  Alcotest.(check bool) "pending marker present" true (contains "~" s)

let test_timeline_empty () =
  Alcotest.(check string) "empty history" "(empty history)\n"
    (Checker.Timeline.render (History.create ()))

let test_render_order () =
  let h = build [ U (0, 1, 0.0, 1.0); S (1, [ Some 1; None ], 2.0, 3.0) ] in
  match Checker.Linearize.linearize ~n:2 h with
  | Ok order ->
      let s = Checker.Timeline.render_order order in
      Alcotest.(check bool) "arrowed order" true
        (String.length s > 0 && String.contains s '>')
  | Error e -> Alcotest.fail e

(* --- The history as the monitor's event source --------------------- *)

let pp_event ppf (ev : Obs.Monitor.event) =
  match ev with
  | Invoke { id; node; at; op } ->
      Format.fprintf ppf "invoke #%d n%d %s @%g" id node
        (match op with Update v -> Printf.sprintf "U(%d)" v | Scan -> "S")
        at
  | Respond_update { id; at } -> Format.fprintf ppf "respond_u #%d @%g" id at
  | Respond_scan { id; at; _ } -> Format.fprintf ppf "respond_s #%d @%g" id at
  | Abort { id; at } -> Format.fprintf ppf "abort #%d @%g" id at
  | Crash _ | Restart _ | Rounds _ -> Format.fprintf ppf "other"

let events_t = Alcotest.(list (testable pp_event ( = )))

(* A finish that arrives after a restart aborted the op (a dying
   incarnation that completes its protocol call late) leaves the op
   aborted: no response recorded, lowered as Invoke + Abort. *)
let test_finish_after_abort () =
  let h = History.create () in
  let u = History.begin_update h ~now:0.0 ~node:0 ~value:1 in
  let sc = History.begin_scan h ~now:0.5 ~node:1 in
  History.abort h ~now:1.0 u;
  History.abort h ~now:1.0 sc;
  History.finish_update h ~now:2.0 u;
  History.finish_scan h ~now:2.0 sc ~snap:[| Some 1; None |];
  Alcotest.(check (option (float 0.))) "update: no response" None u.resp;
  Alcotest.(check (option (float 0.))) "update stays aborted" (Some 1.0)
    u.aborted;
  Alcotest.(check (option (float 0.))) "scan: no response" None sc.resp;
  Alcotest.(check bool) "scan keeps no snapshot" true
    (sc.kind = History.Scan None);
  Alcotest.(check int) "nothing completed" 0 (List.length (History.completed h));
  check_ok "still checks" (Ok ()) (atomic ~n:2 h);
  Alcotest.check events_t "lowered as Invoke + Abort"
    Obs.Monitor.
      [
        Invoke { id = 0; node = 0; at = 0.0; op = Update 1 };
        Invoke { id = 1; node = 1; at = 0.5; op = Scan };
        Abort { id = 0; at = 1.0 };
        Abort { id = 1; at = 1.0 };
      ]
    (Checker.Feed.events h)

(* Without ties in time, the stream the history hands its observer is
   exactly [Feed.events] of the finished history: random schedules of
   three sequential nodes, each step at a fresh instant, with aborts
   (by node, as a restart does), finishes that arrive after an abort,
   and ops left pending at the end. *)
let observer_matches_feed =
  QCheck.Test.make ~name:"observer stream = Feed.events (no ties)"
    ~count:200 QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let seen = ref [] in
      let h = History.create ~observe:(fun ev -> seen := ev :: !seen) () in
      let n = 3 in
      let open_ops = Array.make n None in
      let value = ref 0 in
      for step = 1 to 60 do
        let now = float_of_int step in
        let node = Random.State.int rng n in
        match open_ops.(node) with
        | None ->
            open_ops.(node) <-
              Some
                (if Random.State.bool rng then begin
                   incr value;
                   History.begin_update h ~now ~node ~value:!value
                 end
                 else History.begin_scan h ~now ~node)
        | Some op -> (
            match Random.State.int rng 4 with
            | 0 -> History.abort_node h ~now ~node
            | _ ->
                (match op.kind with
                | History.Update _ -> History.finish_update h ~now op
                | History.Scan _ ->
                    History.finish_scan h ~now op ~snap:(Array.make n None));
                open_ops.(node) <- None)
      done;
      List.rev !seen = Checker.Feed.events h)

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "checker",
      [
        case "figure 1 linearizable" test_figure1_linearizable;
        case "linearization legal order" test_linearization_is_legal_order;
        case "A1 incomparable bases" test_a1_violation;
        case "A2 stale scan" test_a2_violation;
        case "A3 new-old inversion" test_a3_violation;
        case "A4 missing predecessor" test_a4_violation;
        case "A4 pure (concurrent u1)" test_a4_pure;
        case "S2 read-your-writes" test_s2_read_your_writes;
        case "S3 monotone per-node scans" test_s3_monotone_scans;
        case "garbage value rejected" test_garbage_value_rejected;
        case "wrong segment rejected" test_wrong_segment_rejected;
        case "pending update visible" test_pending_update_visible;
        case "A0 future read" test_a0_future_read;
        case "zero-duration scan" test_zero_duration_scan;
        case "empty history" test_empty_history;
        case "duplicate values rejected" test_duplicate_values_rejected;
        case "timeline render" test_timeline_render;
        case "timeline empty" test_timeline_empty;
        case "render order" test_render_order;
        case "finish after abort stays aborted" test_finish_after_abort;
        QCheck_alcotest.to_alcotest observer_matches_feed;
      ] );
  ]
