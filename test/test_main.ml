(* Aggregates all suites; each [Test_*] module contributes one or more
   named Alcotest suites. Run with [dune runtest]. *)

let () =
  Alcotest.run "snapshot_mp"
    (List.concat
       [
         Test_sim.suites;
         Test_proto.suites;
         Test_checker.suites;
         Test_eq_aso.suites;
         Test_baselines.suites;
         Test_byzantine.suites;
         Test_apps.suites;
         Test_wg.suites;
         Test_registers.suites;
         Test_kernel.suites;
         Test_lattice_core.suites;
         Test_harness.suites;
         Test_transport.suites;
         Test_sso.suites;
         Test_stress.suites;
         Test_obs.suites;
         Test_recorder.suites;
         Test_causal.suites;
         Test_mc.suites;
         Test_rt.suites;
         Test_load.suites;
         Test_live_monitor.suites;
         Test_verif.suites;
         Test_persist.suites;
         Test_configs.suites;
         Test_chan.suites;
         Test_dist.suites;
         Test_alloc.suites;
       ])
