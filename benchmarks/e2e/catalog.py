"""The metric catalogue ``BENCHMARK.json`` mirrors (``test_smoke.py``
keeps the two in step).

A per-layer metric is reported on *every* workload; where the layer is
not on that workload's path the value is 0 — the time that workload
spends there.
"""

from __future__ import annotations

from corpus import IC_KINDS

#: (name, unit, better, bound): how far the median may worsen, as a share
#: of the parent's, before ``compare`` (and the driver) call it a
#: regression.  Set from the spread measured at the seed commit — see
#: README, "Bounds".
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
BETTER = {name: better for name, _, better, _ in END_TO_END}

#: (name, unit, better).  Grouped by layer = ``src/repro`` module.
PER_LAYER = [
    # server — read off the untraced window from outside
    ("server.worker_elapsed_p50_ms", "ms", "lower"),
    ("server.outside_worker_p50_ms", "ms", "lower"),
    ("server.latency_p99_ms", "ms", "lower"),
    ("server.response_bytes", "B", "lower"),
    ("server.retries", "count", "lower"),
    ("server.shed", "count", "lower"),
    ("server.ingest_p50_ms", "ms", "lower"),
    ("server.query_after_commit_p50_ms", "ms", "lower"),
    *[(f"server.kind.{kind}_h{hops}_p50_ms", "ms", "lower")
      for hops in (2, 3) for kind in IC_KINDS],
    # server — spans around its public functions
    ("server.submit_overhead_ms", "ms", "lower"),
    ("server.http_ms", "ms", "lower"),
    ("server.ipc_ms", "ms", "lower"),
    ("server.admission_us", "us", "lower"),
    ("server.decode_ms", "ms", "lower"),
    ("server.encode_ms", "ms", "lower"),
    # front end
    ("gsql.parse_ms", "ms", "lower"),
    ("gsql.source_chars", "count", "lower"),
    ("analysis.analyze_ms", "ms", "lower"),
    ("analysis.cost_ms", "ms", "lower"),
    ("compile.lower_ms", "ms", "lower"),
    ("compile.cache_lookup_us", "us", "lower"),
    ("compile.cache_hit_ratio", "ratio", "higher"),
    ("compile.cache_evictions", "count", "lower"),
    ("darpe.compile_ms", "ms", "lower"),
    # execution
    ("core.run_ms", "ms", "lower"),
    ("core.interp_run_ms", "ms", "lower"),
    ("core.pattern_ms", "ms", "lower"),
    ("core.accum_map_ms", "ms", "lower"),
    ("core.accum_reduce_ms", "ms", "lower"),
    ("core.post_accum_ms", "ms", "lower"),
    ("core.other_ms", "ms", "lower"),
    ("core.acc_executions", "count", "lower"),
    ("core.binding_rows", "count", "lower"),
    ("core.select_blocks", "count", "lower"),
    ("paths.sdmc_ms", "ms", "lower"),
    ("paths.product_states", "count", "lower"),
    ("paths.bfs_levels", "count", "lower"),
    ("paths.states_per_ms", "1/ms", "higher"),
    ("accum.combine_weighted", "count", "lower"),
    ("enumeration.qn12_ms", "ms", "lower"),
    ("enumeration.paths_materialized", "count", "lower"),
    ("sqlstyle.q_gs_ms", "ms", "lower"),
    ("core.q_acc_ms", "ms", "lower"),
    ("sqlstyle.gs_over_acc_ratio", "ratio", "higher"),
    # storage
    ("graph.load_json_ms", "ms", "lower"),
    ("graph.clone_ms", "ms", "lower"),
    ("graph.apply_ops_ms", "ms", "lower"),
    ("graph.wal_commit_ms", "ms", "lower"),
    ("graph.store_apply_ms", "ms", "lower"),
    ("graph.store_apply_small_ms", "ms", "lower"),
    ("graph.stats_snapshot_ms", "ms", "lower"),
    ("graph.wal_bytes_per_op", "B", "lower"),
    ("graph.wal_fsyncs_per_batch", "count", "lower"),
    ("graph.recover_ms", "ms", "lower"),
    # the other entry point, and the generator set-up pays for
    ("cli.python_startup_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("ldbc.generate_ms", "ms", "lower"),
    # reconciliation
    ("trace.attributed_ms", "ms", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]
