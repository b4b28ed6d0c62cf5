(* Cross-validation of Theorem 1: the (A0)-(A4) conditions, as decided
   by the monitor fold [Checker.Feed.check], and the Steps I-II
   construction against an independent Wing-Gong-style exhaustive
   search. On thousands of randomized small histories the verdicts must
   agree exactly — sufficiency AND necessity of the conditions. Same for
   the sequential-consistency side, up to the monitor's (A0) check. *)

let build_history specs =
  (* specs: (node, kind, inv, resp_opt), kind = `U v | `S snap *)
  let h = History.create () in
  let sorted =
    List.stable_sort
      (fun (_, _, i1, _) (_, _, i2, _) -> Float.compare i1 i2)
      specs
  in
  let finishers =
    List.map
      (fun (node, kind, inv, resp) ->
        match kind with
        | `U v ->
            let op = History.begin_update h ~now:inv ~node ~value:v in
            (resp, fun r -> History.finish_update h ~now:r op)
        | `S snap ->
            let op = History.begin_scan h ~now:inv ~node in
            (resp, fun r -> History.finish_scan h ~now:r op ~snap))
      sorted
  in
  List.iter
    (fun (resp, fin) -> match resp with Some r -> fin r | None -> ())
    (List.stable_sort
       (fun (r1, _) (r2, _) ->
         compare (Option.value r1 ~default:infinity)
           (Option.value r2 ~default:infinity))
       finishers);
  h

(* --- random history generator ---------------------------------------- *)

let gen_history =
  let open QCheck.Gen in
  (* n in 2..3, up to 3 ops per node, each op an interval; scans return
     vectors assembled from the updates' values (sometimes stale,
     occasionally nonsense). *)
  let* n = int_range 2 3 in
  let* ops_per_node = list_repeat n (int_range 1 3) in
  let value_counter = ref 0 in
  (* First decide updates (so scan vectors can reference their values). *)
  let* node_plans =
    flatten_l
      (List.mapi
         (fun node count ->
           let* kinds =
             list_repeat count (frequencyl [ (3, `U); (3, `S) ])
           in
           let* start = float_bound_inclusive 3.0 in
           let* durations =
             list_repeat count (float_range 0.5 4.0)
           in
           let* gaps = list_repeat count (float_bound_inclusive 2.0) in
           let rec place t kinds durations gaps acc =
             match (kinds, durations, gaps) with
             | [], _, _ | _, [], _ | _, _, [] -> List.rev acc
             | k :: ks, d :: ds, g :: gs ->
                 let inv = t +. g in
                 let resp = inv +. d in
                 place resp ks ds gs ((node, k, inv, resp) :: acc)
           in
           return (place start kinds durations gaps []))
         ops_per_node)
  in
  let plans = List.concat node_plans in
  (* Assign unique values to updates. *)
  let updates_by_node = Array.make n [] in
  let plans =
    List.map
      (fun (node, kind, inv, resp) ->
        match kind with
        | `U ->
            incr value_counter;
            let v = !value_counter in
            updates_by_node.(node) <- v :: updates_by_node.(node);
            (node, `U v, inv, Some resp)
        | `S -> (node, `S, inv, Some resp))
      plans
  in
  (* Fill scan vectors: per segment, ⊥ or one of that node's values
     (not necessarily the latest — that's how violations arise), or
     rarely a nonsense value. *)
  let* plans =
    flatten_l
      (List.map
         (fun (node, kind, inv, resp) ->
           match kind with
           | `U v -> return (node, `U v, inv, resp)
           | `S ->
               let* snap =
                 flatten_l
                   (List.init n (fun seg ->
                        let choices =
                          (4, return None)
                          :: (1, return (Some 999))
                          :: List.map
                               (fun v -> (3, return (Some v)))
                               updates_by_node.(seg)
                        in
                        frequency choices))
               in
               return (node, `S (Array.of_list snap), inv, resp))
         plans)
  in
  (* Occasionally leave an update pending — and truncate that node's
     later operations: a node is sequential, so a pending operation is
     necessarily its last (the well-formedness the checkers assume). *)
  let* plans =
    flatten_l
      (List.map
         (fun (node, kind, inv, resp) ->
           match kind with
           | `U v ->
               let* pending = frequencyl [ (1, true); (9, false) ] in
               return (node, `U v, inv, if pending then None else resp)
           | `S snap -> return (node, `S snap, inv, resp))
         plans)
  in
  let crashed = Array.make n false in
  let plans =
    List.filter
      (fun (node, _, _, resp) ->
        if crashed.(node) then false
        else begin
          if resp = None then crashed.(node) <- true;
          true
        end)
      plans
  in
  return (n, plans)

let history_arb =
  QCheck.make gen_history ~print:(fun (n, plans) ->
      Format.asprintf "n=%d@.%a" n History.pp
        (build_history plans))

let conditions_atomic ~n h =
  Result.is_ok (Checker.Feed.check ~mode:Obs.Monitor.Atomic ~n h)

let construction_atomic ~n h =
  match Checker.Linearize.linearize ~n h with Ok _ -> true | Error _ -> false

let conditions_seq ~n h =
  Result.is_ok (Checker.Feed.check ~mode:Obs.Monitor.Sequential ~n h)

(* Some scan returns the value of an update invoked only after the scan
   responded. Without real time, the oracle may order that update first
   and accept; the monitor's Sequential mode rejects it with (A0). *)
let future_read h =
  let ops = History.ops h in
  List.exists
    (fun (sc : History.op) ->
      History.is_scan sc && sc.resp <> None
      && List.exists
           (fun (u : History.op) ->
             History.is_update u && History.precedes sc u
             && Array.mem (Some (History.update_value u))
                  (History.scan_result sc))
           ops)
    ops

let construction_seq ~n h =
  match Checker.Linearize.sequentialize ~n h with
  | Ok _ -> true
  | Error _ -> false

let prop_atomic_agreement =
  QCheck.Test.make ~name:"conditions+construction == exhaustive search (atomic)"
    ~count:2000 history_arb (fun (n, plans) ->
      let h = build_history plans in
      let reference = Checker.Wg.linearizable ~n h in
      let conds = conditions_atomic ~n h in
      let built = construction_atomic ~n h in
      conds = reference && built = reference)

let prop_seq_agreement =
  QCheck.Test.make
    ~name:"conditions+construction == exhaustive search (sequential)"
    ~count:2000 history_arb (fun (n, plans) ->
      let h = build_history plans in
      let reference = Checker.Wg.equivalent_sequential ~n h in
      let conds = conditions_seq ~n h in
      let built = construction_seq ~n h in
      conds = (reference && not (future_read h)) && built = reference)

let prop_atomic_implies_sequential =
  QCheck.Test.make ~name:"linearizable ⇒ sequentially consistent" ~count:1000
    history_arb (fun (n, plans) ->
      let h = build_history plans in
      (not (Checker.Wg.linearizable ~n h))
      || Checker.Wg.equivalent_sequential ~n h)

(* --- hand-picked sanity cases for the reference checker itself ------- *)

let test_wg_simple_yes () =
  let h =
    build_history
      [
        (0, `U 1, 0.0, Some 1.0);
        (1, `S [| Some 1; None |], 2.0, Some 3.0);
      ]
  in
  Alcotest.(check bool) "linearizable" true (Checker.Wg.linearizable ~n:2 h)

let test_wg_simple_no () =
  (* Scan misses a completed update. *)
  let h =
    build_history
      [
        (0, `U 1, 0.0, Some 1.0);
        (1, `S [| None; None |], 2.0, Some 3.0);
      ]
  in
  Alcotest.(check bool) "not linearizable" false
    (Checker.Wg.linearizable ~n:2 h);
  Alcotest.(check bool) "but sequentially consistent" true
    (Checker.Wg.equivalent_sequential ~n:2 h)

let test_wg_new_old_inversion () =
  let h =
    build_history
      [
        (0, `U 1, 0.0, Some 10.0);
        (1, `S [| Some 1; None |], 1.0, Some 2.0);
        (1, `S [| None; None |], 3.0, Some 4.0);
      ]
  in
  Alcotest.(check bool) "inversion rejected" false
    (Checker.Wg.linearizable ~n:2 h);
  Alcotest.(check bool) "inversion not sequentializable either" false
    (Checker.Wg.equivalent_sequential ~n:2 h)

let test_wg_pending_update_both_ways () =
  (* A pending update may or may not take effect: both observations are
     linearizable. *)
  let observed =
    build_history
      [ (0, `U 1, 0.0, None); (1, `S [| Some 1; None |], 5.0, Some 6.0) ]
  in
  let unobserved =
    build_history
      [ (0, `U 1, 0.0, None); (1, `S [| None; None |], 5.0, Some 6.0) ]
  in
  Alcotest.(check bool) "observed ok" true
    (Checker.Wg.linearizable ~n:2 observed);
  Alcotest.(check bool) "unobserved ok" true
    (Checker.Wg.linearizable ~n:2 unobserved)

let test_wg_incomparable_scans () =
  let h =
    build_history
      [
        (0, `U 1, 0.0, Some 5.0);
        (1, `U 2, 0.0, Some 5.0);
        (2, `S [| Some 1; None; None |], 1.0, Some 2.0);
        (2, `S [| None; Some 2; None |], 3.0, Some 4.0);
      ]
  in
  Alcotest.(check bool) "incomparable scans rejected" false
    (Checker.Wg.linearizable ~n:3 h)

let case name f = Alcotest.test_case name `Quick f
let qcase t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "checker.wg",
      [
        case "simple yes" test_wg_simple_yes;
        case "simple no" test_wg_simple_no;
        case "new-old inversion" test_wg_new_old_inversion;
        case "pending update both ways" test_wg_pending_update_both_ways;
        case "incomparable scans" test_wg_incomparable_scans;
        qcase prop_atomic_agreement;
        qcase prop_seq_agreement;
        qcase prop_atomic_implies_sequential;
      ] );
  ]
