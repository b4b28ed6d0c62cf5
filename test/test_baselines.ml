(* Baseline algorithms run through the same randomized workloads and the
   same tight-conditions checker as EQ-ASO, plus properties specific to
   each substrate (SCD-broadcast's delivery constraint, double-collect
   retry behaviour, store-collect helping). *)

let fixed = Harness.Runner.Fixed_d 1.0

let config ?(n = 5) ?(f = 2) ?(seed = 1L) ?(delay = fixed) () =
  { Harness.Runner.n; f; delay; seed }

let check (algo : Harness.Algo.t) (outcome : Harness.Runner.outcome) =
  match Checker.Batch.check algo.consistency outcome.history with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" algo.name e

let random_runs (algo : Harness.Algo.t) ~seeds ~crashes () =
  List.iter
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int (seed * 571)) in
      let n = 5 and f = 2 in
      let workload =
        Harness.Workload.random rng ~n ~ops_per_node:4 ~scan_fraction:0.4
          ~max_gap:5.0
      in
      let adversary =
        if crashes then
          Harness.Adversary.Crash_k_random { k = 2; window = 15.0 }
        else Harness.Adversary.No_faults
      in
      let outcome =
        Harness.Runner.run ~make:algo.make
          ~workload_seed:(Int64.of_int (seed * 3 + 1))
          (config ~n ~f ~seed:(Int64.of_int seed) ())
          ~workload ~adversary
      in
      check algo outcome)
    seeds

let seeds = [ 1; 2; 3; 4; 5; 6 ]

let sequential_visibility (algo : Harness.Algo.t) () =
  (* An update that completes before a scan starts must be visible. *)
  let workload = Array.make 5 [] in
  workload.(0) <- [ { Harness.Workload.gap = 0.0; op = Harness.Workload.Update } ];
  workload.(1) <- [ { gap = 100.0; op = Harness.Workload.Scan } ];
  let outcome =
    Harness.Runner.run ~make:algo.make (config ()) ~workload
      ~adversary:Harness.Adversary.No_faults
  in
  check algo outcome;
  let scan = List.find History.is_scan (History.completed outcome.history) in
  Alcotest.(check (option int))
    (algo.name ^ ": completed update visible")
    (Some 1)
    (History.scan_result scan).(0)

let baseline_cases (algo : Harness.Algo.t) =
  [
    Alcotest.test_case (algo.name ^ " random failure-free") `Quick
      (random_runs algo ~seeds ~crashes:false);
    Alcotest.test_case (algo.name ^ " random with crashes") `Quick
      (random_runs algo ~seeds ~crashes:true);
    Alcotest.test_case (algo.name ^ " sequential visibility") `Quick
      (sequential_visibility algo);
  ]

(* --- dc-aso specifics ----------------------------------------------- *)

let test_dc_update_constant_time () =
  let workload =
    Harness.Workload.updates_at_zero ~n:5 ~updaters:[ 0 ] ~scanner:None
  in
  let outcome =
    Harness.Runner.run ~make:Harness.Algo.dc_aso.make (config ()) ~workload
      ~adversary:Harness.Adversary.No_faults
  in
  let lat = Harness.Runner.max_latency (Harness.Runner.update_latencies outcome) in
  Alcotest.(check (float 0.01)) "one round trip" 2.0 lat

let test_dc_scan_grows_with_writers () =
  (* Staggered writers land new values between the scanner's collects,
     forcing double-collect retries: scan latency grows with writers. *)
  let scan_latency writers =
    let workload = Array.make 9 [] in
    List.iteri
      (fun idx w ->
        workload.(w) <-
          [
            {
              Harness.Workload.gap = 0.5 +. (2.0 *. float_of_int idx);
              op = Harness.Workload.Update;
            };
          ])
      writers;
    workload.(8) <- [ { gap = 0.0; op = Harness.Workload.Scan } ];
    let outcome =
      Harness.Runner.run ~make:Harness.Algo.dc_aso.make (config ~n:9 ~f:4 ())
        ~workload ~adversary:Harness.Adversary.No_faults
    in
    Harness.Runner.max_latency (Harness.Runner.scan_latencies outcome)
  in
  let quiet = scan_latency [] in
  let busy = scan_latency [ 0; 1; 2; 3 ] in
  Alcotest.(check bool)
    (Printf.sprintf "contended scan slower (%.1f vs %.1f)" busy quiet)
    true (busy > quiet)

(* --- sc-aso specifics ------------------------------------------------ *)

let test_sc_update_embeds_scan () =
  let workload =
    Harness.Workload.updates_at_zero ~n:5 ~updaters:[ 0 ] ~scanner:None
  in
  let outcome =
    Harness.Runner.run ~make:Harness.Algo.sc_aso.make (config ()) ~workload
      ~adversary:Harness.Adversary.No_faults
  in
  let lat = Harness.Runner.max_latency (Harness.Runner.update_latencies outcome) in
  Alcotest.(check bool)
    (Printf.sprintf "update costs an embedded scan (%.1f D > 2 D)" lat)
    true (lat > 2.0)

let test_sc_helping_bounds_scan () =
  (* A writer updating in a tight loop cannot starve a scan: helping
     terminates it. With dc-aso the same scenario needs one retry per
     write; with sc-aso borrowing caps it. *)
  let engine = Sim.Engine.create ~seed:7L () in
  let t =
    Baselines.Sc_aso.create engine ~n:3 ~f:1 ~delay:(Sim.Delay.fixed 1.0)
  in
  (* manic writer *)
  Sim.Fiber.spawn engine (fun () ->
      for v = 1 to 30 do
        Baselines.Sc_aso.update t ~node:0 v
      done);
  let snap = ref None in
  Sim.Fiber.spawn engine (fun () ->
      Sim.Fiber.sleep engine 1.0;
      snap := Some (Baselines.Sc_aso.scan t ~node:2));
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "scan finished" true (!snap <> None);
  Alcotest.(check bool) "helping used" true (Baselines.Sc_aso.borrowed_scans t >= 0)

(* --- scd-aso sync ablation -------------------------------------------- *)

let test_scd_no_sync_still_linearizable () =
  (* Imbs et al.'s UPDATE issues a second scd-broadcast (SYNC) after its
     write delivers. Under our closure-based delivery rule that barrier
     is implied (see the interface note), so the no-sync variant must
     still be linearizable — at half the update latency. A measured
     finding, not a recommendation against the published algorithm. *)
  let make engine ~n ~f ~delay =
    Baselines.Scd_aso.instance
      (Baselines.Scd_aso.create ~sync_on_update:false engine ~n ~f ~delay)
  in
  List.iter
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int (seed * 733)) in
      let workload =
        Harness.Workload.random rng ~n:5 ~ops_per_node:4 ~scan_fraction:0.4
          ~max_gap:5.0
      in
      let outcome =
        Harness.Runner.run ~make ~workload_seed:(Int64.of_int seed)
          (config ~seed:(Int64.of_int seed) ())
          ~workload ~adversary:Harness.Adversary.No_faults
      in
      match Checker.Batch.check Obs.Monitor.Atomic outcome.history with
      | Ok () -> ()
      | Error e -> Alcotest.failf "no-sync scd-aso: %s" e)
    [ 1; 2; 3; 4; 5; 6 ];
  (* latency: 2D instead of 4D *)
  let latency sync =
    let make engine ~n ~f ~delay =
      Baselines.Scd_aso.instance
        (Baselines.Scd_aso.create ~sync_on_update:sync engine ~n ~f ~delay)
    in
    let workload =
      Harness.Workload.updates_at_zero ~n:5 ~updaters:[ 0 ] ~scanner:None
    in
    let outcome =
      Harness.Runner.run ~make (config ()) ~workload
        ~adversary:Harness.Adversary.No_faults
    in
    Harness.Runner.max_latency (Harness.Runner.update_latencies outcome)
  in
  Alcotest.(check (float 0.01)) "with sync: 4D" 4.0 (latency true);
  Alcotest.(check (float 0.01)) "without sync: 2D" 2.0 (latency false)

(* --- SCD-broadcast ---------------------------------------------------- *)

module Scd = Baselines.Scd_broadcast

let scd_run ~seed ~n ~f ~msgs_per_node ~crash =
  let engine = Sim.Engine.create ~seed () in
  (* Per-node delivery logs: batch index per message. *)
  let batch_of = Array.init n (fun _ -> Hashtbl.create 16) in
  let batch_counter = Array.make n 0 in
  let deliver ~node batch =
    let b = batch_counter.(node) in
    batch_counter.(node) <- b + 1;
    List.iter (fun (id, _) -> Hashtbl.replace batch_of.(node) id b) batch
  in
  let scd =
    Scd.create engine ~n ~f ~delay:(Sim.Delay.fixed 1.0) ~deliver
  in
  let rng = Sim.Rng.create seed in
  for node = 0 to n - 1 do
    Sim.Fiber.spawn engine (fun () ->
        for _ = 1 to msgs_per_node do
          Sim.Fiber.sleep engine (Sim.Rng.float rng 3.0);
          ignore (Scd.broadcast scd ~node node)
        done)
  done;
  (match crash with
  | Some (time, node) ->
      Sim.Engine.schedule engine ~delay:time (fun () ->
          Sim.Network.crash (Scd.net scd) node)
  | None -> ());
  Sim.Engine.run_until_quiescent engine;
  (batch_of, Scd.net scd)

let test_scd_constraint () =
  List.iter
    (fun seed ->
      let n = 5 in
      let batch_of, _ =
        scd_run ~seed:(Int64.of_int seed) ~n ~f:2 ~msgs_per_node:5
          ~crash:(if seed mod 2 = 0 then Some (4.0, 0) else None)
      in
      (* The SCD constraint: p delivers m strictly before m'  ⇒  no q
         delivers m' strictly before m. *)
      for p = 0 to n - 1 do
        for q = 0 to n - 1 do
          Hashtbl.iter
            (fun m bp_m ->
              Hashtbl.iter
                (fun m' bp_m' ->
                  if bp_m < bp_m' then
                    match
                      ( Hashtbl.find_opt batch_of.(q) m,
                        Hashtbl.find_opt batch_of.(q) m' )
                    with
                    | Some bq_m, Some bq_m' ->
                        if bq_m' < bq_m then
                          Alcotest.failf
                            "SCD violated (seed %d): %d delivers %a<%a, %d \
                             reverses"
                            seed p Scd.Mid.pp m Scd.Mid.pp m' q
                    | _ -> ())
                batch_of.(p))
            batch_of.(p)
        done
      done)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_scd_totality () =
  let n = 5 in
  let batch_of, net =
    scd_run ~seed:99L ~n ~f:2 ~msgs_per_node:4 ~crash:None
  in
  ignore net;
  (* Failure-free: every node delivers all 20 messages. *)
  for node = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "node %d delivered all" node)
      20
      (Hashtbl.length batch_of.(node))
  done

let test_scd_agreement_under_crash () =
  let n = 5 in
  let batch_of, net = scd_run ~seed:123L ~n ~f:2 ~msgs_per_node:4 ~crash:(Some (3.0, 1)) in
  (* All surviving nodes deliver the same message set. *)
  let live = List.filter (fun i -> not (Sim.Network.is_crashed net i)) (List.init n Fun.id) in
  match live with
  | [] -> Alcotest.fail "no live nodes"
  | first :: rest ->
      let set_of node =
        Hashtbl.fold (fun id _ acc -> id :: acc) batch_of.(node) []
        |> List.sort Scd.Mid.compare
      in
      let reference = set_of first in
      List.iter
        (fun node ->
          Alcotest.(check int)
            (Printf.sprintf "node %d same delivery set size" node)
            (List.length reference)
            (List.length (set_of node)))
        rest

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "baselines.checked",
      List.concat_map baseline_cases
        [ Harness.Algo.dc_aso; Harness.Algo.sc_aso; Harness.Algo.scd_aso;
          Harness.Algo.la_aso ] );
    ( "baselines.dc_aso",
      [
        case "update constant time" test_dc_update_constant_time;
        case "scan grows with writers" test_dc_scan_grows_with_writers;
      ] );
    ( "baselines.sc_aso",
      [
        case "update embeds scan" test_sc_update_embeds_scan;
        case "helping bounds scan" test_sc_helping_bounds_scan;
      ] );
    ( "baselines.scd",
      [
        case "no-sync update ablation" test_scd_no_sync_still_linearizable;
        case "set-constrained delivery" test_scd_constraint;
        case "totality" test_scd_totality;
        case "agreement under crash" test_scd_agreement_under_crash;
      ] );
  ]
