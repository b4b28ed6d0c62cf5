(* Exhaustive small-configuration sweep: every algorithm on every valid
   (n, f) pair in a small range, with k = f crashes actually injected,
   all checked at the declared consistency level. Catches any quorum
   arithmetic that only happens to work at the default sizes. *)

let configs =
  (* (n, f) with n > 2f, f >= 1, n <= 8 — plus the f = 0 degenerate. *)
  List.concat_map
    (fun n ->
      List.filter_map
        (fun f -> if n > 2 * f then Some (n, f) else None)
        (List.init ((n / 2) + 1) Fun.id))
    [ 3; 4; 5; 6; 7; 8 ]

let sweep (algo : Harness.Algo.t) () =
  List.iter
    (fun (n, f) ->
      let rng = Sim.Rng.create (Int64.of_int ((n * 100) + f)) in
      let workload =
        Harness.Workload.random rng ~n ~ops_per_node:3 ~scan_fraction:0.5
          ~max_gap:4.0
      in
      let adversary =
        if f = 0 then Harness.Adversary.No_faults
        else Harness.Adversary.Crash_k_random { k = f; window = 12.0 }
      in
      let outcome =
        try
          Harness.Runner.run ~make:algo.make
            ~workload_seed:(Int64.of_int ((n * 7) + f))
            {
              Harness.Runner.n;
              f;
              delay = Harness.Runner.Fixed_d 1.0;
              seed = Int64.of_int ((13 * n) + f);
            }
            ~workload ~adversary
        with exn ->
          Alcotest.failf "%s n=%d f=%d: %s" algo.name n f
            (Printexc.to_string exn)
      in
      match Checker.Batch.check algo.consistency outcome.history with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s n=%d f=%d: %s" algo.name n f e)
    configs

let byz_configs =
  (* n > 3f, f >= 1, n <= 10 *)
  List.concat_map
    (fun n ->
      List.filter_map
        (fun f -> if f >= 1 && n > 3 * f then Some (n, f) else None)
        (List.init ((n / 3) + 1) Fun.id))
    [ 4; 5; 7; 10 ]

let test_byz_sweep () =
  List.iter
    (fun (n, f) ->
      let engine = Sim.Engine.create ~seed:(Int64.of_int ((n * 31) + f)) () in
      let t =
        Byzantine.Byz_eq_aso.create engine ~n ~f ~delay:(Sim.Delay.fixed 1.0)
      in
      (* f silent Byzantine nodes; the rest do one update + one scan *)
      for node = n - f to n - 1 do
        Byzantine.Behaviors.silent t ~node
      done;
      let history = History.create () in
      for node = 0 to n - f - 1 do
        Sim.Fiber.spawn engine (fun () ->
            let op =
              History.begin_update history ~now:(Sim.Engine.now engine) ~node
                ~value:(node + 1)
            in
            Byzantine.Byz_eq_aso.update t ~node (node + 1);
            History.finish_update history ~now:(Sim.Engine.now engine) op;
            let sc =
              History.begin_scan history ~now:(Sim.Engine.now engine) ~node
            in
            let snap = Byzantine.Byz_eq_aso.scan t ~node in
            History.finish_scan history ~now:(Sim.Engine.now engine) sc ~snap)
      done;
      Sim.Engine.run_until_quiescent engine;
      Alcotest.(check int)
        (Printf.sprintf "n=%d f=%d: all ops done" n f)
        0
        (List.length (History.pending history));
      match Checker.Feed.check ~mode:Obs.Monitor.Atomic ~n history with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "byz n=%d f=%d: %a" n f
            Obs.Monitor.pp_violation v)
    byz_configs

let suites =
  [
    ( "configs",
      List.map
        (fun (algo : Harness.Algo.t) ->
          Alcotest.test_case
            (Printf.sprintf "%s on all (n, f)" algo.name)
            `Quick (sweep algo))
        Harness.Algo.all
      @ [ Alcotest.test_case "byz-eq-aso on all (n, f)" `Quick test_byz_sweep ]
    );
  ]
