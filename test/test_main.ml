(* Aggregated test runner: one alcotest suite per library module group. *)

let () =
  Alcotest.run "coherent_naming"
    [
      ("name", Test_name.suite);
      ("json", Test_json.suite);
      ("entity", Test_entity.suite);
      ("context", Test_context.suite);
      ("store", Test_store.suite);
      ("occurrence", Test_occurrence.suite);
      ("resolver", Test_resolver.suite);
      ("graph", Test_graph.suite);
      ("rule", Test_rule.suite);
      ("coherence", Test_coherence.suite);
      ("replication", Test_replication.suite);
      ("codec", Test_codec.suite);
      ("lint", Test_lint.suite);
      ("compiled", Test_compiled.suite);
      ("rng", Test_rng.suite);
      ("engine", Test_engine.suite);
      ("counters", Test_counters.suite);
      ("network", Test_network.suite);
      ("rpc", Test_rpc.suite);
      ("nameserver", Test_nameserver.suite);
      ("chaos", Test_chaos.suite);
      ("leader", Test_leader.suite);
      ("fs", Test_fs.suite);
      ("subtree", Test_subtree.suite);
      ("pqid", Test_pqid.suite);
      ("process-env", Test_process_env.suite);
      ("unix-scheme", Test_unix_scheme.suite);
      ("newcastle", Test_newcastle.suite);
      ("shared-graph", Test_shared_graph.suite);
      ("dce", Test_dce.suite);
      ("crosslink", Test_crosslink.suite);
      ("per-process", Test_per_process.suite);
      ("embedded", Test_embedded.suite);
      ("pqid-scheme", Test_pqid_scheme.suite);
      ("pqid-model", Test_pqid_model.suite);
      ("jade", Test_jade.suite);
      ("federation", Test_federation.suite);
      ("exec-facility", Test_exec_facility.suite);
      ("diff", Test_diff.suite);
      ("workload", Test_workload.suite);
      ("script", Test_script.suite);
      ("harness", Test_harness.suite);
      ("worldgen", Test_worldgen.suite);
      ("integration", Test_integration.suite);
      ("analysis", Test_analysis.suite);
      ("flow", Test_flow.suite);
      ("cluster", Test_cluster.suite);
      ("explore", Test_explore.suite);
      ("pool", Test_pool.suite);
      ("ctl", Test_ctl.suite);
    ]
