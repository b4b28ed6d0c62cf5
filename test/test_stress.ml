(* Stress and robustness: engine livelock guard, large fiber counts,
   randomized RBC adversaries (qcheck), SCD-broadcast under random
   delays, and long mixed EQ-ASO runs under random delays + crashes —
   all still checked for their respective correctness properties. *)

let test_engine_livelock_guard () =
  let engine = Sim.Engine.create () in
  let rec forever () =
    Sim.Engine.schedule engine ~delay:0.0 forever_unit
  and forever_unit () = forever () in
  forever ();
  Alcotest.(check bool) "max_steps trips" true
    (try
       Sim.Engine.run ~max_steps:10_000 engine;
       false
     with Failure _ -> true)

let test_many_fibers () =
  let engine = Sim.Engine.create () in
  let counter = ref 0 in
  let cond = Sim.Condition.create () in
  let release = ref false in
  for _ = 1 to 2_000 do
    Sim.Fiber.spawn engine (fun () ->
        Sim.Condition.await cond (fun () -> !release);
        incr counter)
  done;
  Sim.Engine.schedule engine ~delay:5.0 (fun () ->
      release := true;
      Sim.Condition.signal cond);
  Sim.Engine.run engine;
  Alcotest.(check int) "all fibers resumed" 2_000 !counter

let test_condition_waker_once () =
  (* Double signal must not resume a fiber twice. *)
  let engine = Sim.Engine.create () in
  let cond = Sim.Condition.create () in
  let resumed = ref 0 in
  let gate = ref false in
  Sim.Fiber.spawn engine (fun () ->
      Sim.Condition.await cond (fun () -> !gate);
      incr resumed);
  Sim.Engine.schedule engine ~delay:1.0 (fun () ->
      gate := true;
      Sim.Condition.signal cond;
      Sim.Condition.signal cond);
  Sim.Engine.run engine;
  Alcotest.(check int) "resumed once" 1 !resumed

(* --- RBC under randomized Byzantine wire injection ------------------- *)

let rbc_adversary_gen =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (triple (int_range 0 3) (* dst *)
         (int_range 0 1) (* payload choice *)
         (int_range 0 2) (* wire type *)))

let prop_rbc_agreement_random_adversary =
  QCheck.Test.make ~name:"rbc agreement under random wire injection"
    ~count:300
    (QCheck.make rbc_adversary_gen ~print:(fun l ->
         String.concat ";"
           (List.map (fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c) l)))
    (fun injections ->
      let n = 4 and f = 1 in
      let engine = Sim.Engine.create ~seed:7L () in
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
      (* Node 3 is Byzantine: it injects arbitrary wire messages for
         slot (3, 0) with conflicting payloads. Correct broadcasts from
         node 0 run concurrently. *)
      Sim.Network.set_handler net 3 (fun ~src:_ _ -> ());
      Byzantine.Rbc.broadcast rbcs.(0) "honest";
      List.iter
        (fun (dst, payload_choice, wire_type) ->
          let payload = if payload_choice = 0 then "p0" else "p1" in
          let wire =
            match wire_type with
            | 0 -> Byzantine.Rbc.Send { seq = 0; payload }
            | 1 -> Byzantine.Rbc.Echo { origin = 3; seq = 0; payload }
            | _ -> Byzantine.Rbc.Ready { origin = 3; seq = 0; payload }
          in
          Sim.Network.send net ~src:3 ~dst:(dst mod n) wire)
        injections;
      Sim.Engine.run engine;
      (* Correct nodes 0-2: all deliver "honest" from 0; per slot (3,0)
         they deliver at most one payload, and all who deliver agree. *)
      let ok_honest =
        List.for_all
          (fun me -> List.mem (0, "honest") !(delivered.(me)))
          [ 0; 1; 2 ]
      in
      let byz_payloads =
        List.filter_map
          (fun me ->
            match List.filter (fun (src, _) -> src = 3) !(delivered.(me)) with
            | [] -> None
            | [ (_, p) ] -> Some p
            | _ -> Some "DUPLICATE")
          [ 0; 1; 2 ]
      in
      let agree =
        match List.sort_uniq String.compare byz_payloads with
        | [] | [ _ ] -> not (List.mem "DUPLICATE" byz_payloads)
        | _ -> false
      in
      ok_honest && agree)

(* --- SCD under random delays ----------------------------------------- *)

let prop_scd_constraint_random_delays =
  QCheck.Test.make ~name:"scd constraint under uniform random delays"
    ~count:60
    QCheck.(make Gen.(int_range 1 10_000) ~print:string_of_int)
    (fun seed ->
      let n = 4 and f = 1 in
      let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
      let delay =
        Sim.Delay.uniform
          (Sim.Rng.split (Sim.Engine.rng engine))
          ~lo:0.1 ~hi:1.0 1.0
      in
      let batch_of = Array.init n (fun _ -> Hashtbl.create 16) in
      let counter = Array.make n 0 in
      let deliver ~node batch =
        let b = counter.(node) in
        counter.(node) <- b + 1;
        List.iter (fun (id, _) -> Hashtbl.replace batch_of.(node) id b) batch
      in
      let scd = Baselines.Scd_broadcast.create engine ~n ~f ~delay ~deliver in
      let rng = Sim.Rng.create (Int64.of_int (seed * 17)) in
      for node = 0 to n - 1 do
        Sim.Fiber.spawn engine (fun () ->
            for _ = 1 to 3 do
              Sim.Fiber.sleep engine (Sim.Rng.float rng 2.0);
              ignore (Baselines.Scd_broadcast.broadcast scd ~node node)
            done)
      done;
      Sim.Engine.run_until_quiescent engine;
      (* check the SCD constraint over all pairs *)
      let ok = ref true in
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
                    | Some bq_m, Some bq_m' -> if bq_m' < bq_m then ok := false
                    | _ -> ())
                batch_of.(p))
            batch_of.(p)
        done
      done;
      !ok)

(* --- long mixed EQ-ASO runs ------------------------------------------ *)

let prop_eq_aso_random_everything =
  QCheck.Test.make ~name:"eq-aso linearizable under random everything"
    ~count:25
    QCheck.(make Gen.(int_range 1 10_000) ~print:string_of_int)
    (fun seed ->
      let n = 6 and f = 2 in
      let rng = Sim.Rng.create (Int64.of_int (seed * 37)) in
      let workload =
        Harness.Workload.random rng ~n ~ops_per_node:5 ~scan_fraction:0.45
          ~max_gap:3.0
      in
      let outcome =
        Harness.Runner.run ~make:Harness.Algo.eq_aso.make
          ~workload_seed:(Int64.of_int (seed + 11))
          {
            Harness.Runner.n;
            f;
            delay = Harness.Runner.Uniform_d { lo = 0.05; hi = 1.0; d = 1.0 };
            seed = Int64.of_int seed;
          }
          ~workload
          ~adversary:
            (if seed mod 3 = 0 then
               Harness.Adversary.Crash_k_random { k = 2; window = 12.0 }
             else Harness.Adversary.No_faults)
      in
      Result.is_ok (Checker.Batch.check Obs.Monitor.Atomic outcome.history))

let test_campaign_clean () =
  let report =
    Harness.Campaign.run
      ~algos:[ Harness.Algo.eq_aso; Harness.Algo.sso ]
      ~runs:8 ~seed:99L
  in
  Alcotest.(check int) "16 runs" 16 report.runs;
  Alcotest.(check (list string)) "no failures" [] report.failures;
  Alcotest.(check bool) "did real work" true (report.operations > 50)

let test_adversarial_delay_patterns () =
  (* EQ-ASO under scripted adversarial delay schedules: rotating slow
     quorums, oscillating link speeds, one persistently slow node. Each
     pattern stays within the bound D, and the checker validates every
     run. *)
  let patterns =
    [
      ("rotating slow quorum", fun ~src ~dst ~now ->
        let epoch = int_of_float (now /. 3.0) in
        if (src + epoch) mod 3 = 0 || (dst + epoch) mod 3 = 0 then 1.0
        else 0.2);
      ("oscillating", fun ~src:_ ~dst:_ ~now ->
        if int_of_float now mod 2 = 0 then 1.0 else 0.1);
      ("one slow node", fun ~src ~dst ~now:_ ->
        if src = 0 || dst = 0 then 1.0 else 0.05);
    ]
  in
  List.iter
    (fun (name, pattern) ->
      let engine = Sim.Engine.create ~seed:4L () in
      let delay = Sim.Delay.custom ~d:1.0 pattern in
      let t = Aso_core.Eq_aso.create engine ~n:5 ~f:2 ~delay in
      let history = History.create () in
      for node = 0 to 4 do
        Sim.Fiber.spawn engine (fun () ->
            for i = 1 to 3 do
              let op =
                History.begin_update history ~now:(Sim.Engine.now engine)
                  ~node ~value:((100 * node) + i)
              in
              Aso_core.Eq_aso.update t ~node ((100 * node) + i);
              History.finish_update history ~now:(Sim.Engine.now engine) op;
              let sc =
                History.begin_scan history ~now:(Sim.Engine.now engine) ~node
              in
              let snap = Aso_core.Eq_aso.scan t ~node in
              History.finish_scan history ~now:(Sim.Engine.now engine) sc ~snap
            done)
      done;
      Sim.Engine.run_until_quiescent engine;
      match Checker.Feed.check ~mode:Obs.Monitor.Atomic ~n:5 history with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "%s: %a" name Obs.Monitor.pp_violation v)
    patterns

let case name f = Alcotest.test_case name `Quick f
let qcase t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "stress",
      [
        case "engine livelock guard" test_engine_livelock_guard;
        case "2000 fibers" test_many_fibers;
        case "condition wakes once" test_condition_waker_once;
        qcase prop_rbc_agreement_random_adversary;
        qcase prop_scd_constraint_random_delays;
        qcase prop_eq_aso_random_everything;
        case "campaign clean" test_campaign_clean;
        case "adversarial delay patterns" test_adversarial_delay_patterns;
      ] );
  ]
