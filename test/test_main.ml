let () =
  Alcotest.run "mintotal-dbp"
    [
      ("rat", Test_rat.suite);
      ("fixed", Test_fixed.suite);
      ("interval", Test_interval.suite);
      ("step_fn", Test_step_fn.suite);
      ("rand", Test_rand.suite);
      ("instance", Test_instance.suite);
      ("simulator", Test_simulator.suite);
      ("engine", Test_engine.suite);
      ("audit", Test_audit.suite);
      ("lint", Test_lint.suite);
      ("typed_lint", Test_typed_lint.suite);
      ("algorithms", Test_algorithms.suite);
      ("opt", Test_opt.suite);
      ("adversary", Test_adversary.suite);
      ("workload", Test_workload.suite);
      ("faults", Test_faults.suite);
      ("cloudgaming", Test_cloudgaming.suite);
      ("analysis", Test_analysis.suite);
      ("extensions", Test_extensions.suite);
      ("constrained", Test_constrained.suite);
      ("offline", Test_offline.suite);
      ("clairvoyant", Test_clairvoyant.suite);
      ("fleet", Test_fleet.suite);
      ("validation", Test_validation.suite);
      ("oracles", Test_oracles.suite);
      ("obs", Test_obs.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("repack", Test_repack.suite);
      ("experiments", Test_experiments.suite);
      ("vec", Test_vec.suite);
      ("serve", Test_serve.suite);
    ]
