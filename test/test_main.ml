let () =
  Alcotest.run "taupsm"
    (Test_date.suite @ Test_period.suite @ Test_value.suite @ Test_parser.suite
   @ Test_eval.suite @ Test_psm.suite @ Test_temporal.suite @ Test_perst.suite @ Test_taubench.suite @ Test_units.suite @ Test_analysis.suite @ Test_heuristic.suite @ Test_commute_prop.suite @ Test_stratum_edge.suite @ Test_cost_model.suite @ Test_sql_fidelity.suite @ Test_transaction_time.suite @ Test_joins.suite @ Test_access_paths.suite @ Test_ast_prop.suite @ Test_sequenced_dml.suite @ Test_interval_index.suite @ Test_observe.suite @ Test_robust.suite @ Test_durable.suite @ Test_parallel.suite @ Test_compile.suite @ Test_merge.suite @ Test_adaptive.suite @ Test_serve.suite @ Test_storage_fault.suite)
