//! Every metric the benchmark prints, with its unit. `BENCHMARK.json` at
//! the root of the repository lists the same names; a test holds the two
//! together.

/// End-to-end metrics, printed with `--trace 0` for every workload.
///
/// An *op* is one time to a checked solution: a factorization (and solve)
/// on the three factor workloads, one solved right-hand side on
/// `serve_mixed`, where a request's latency is submit-to-result of its
/// burst.
pub const END_TO_END: &[(&str, &str)] = &[
    // Median of the run's set-ups: inputs from the seed, construction or
    // registration, one cold op and its full verification.
    ("setup_s", "s"),
    // Median latency over all ops of the run.
    ("op_p50_ms", "ms"),
    // Median over ten equal slices of the run of each slice's 99th
    // percentile latency.
    ("op_p99_ms", "ms"),
    // Median over the same slices of ops completed per timed second.
    ("ops_per_s", "1/s"),
    // VmHWM when the run ends.
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1` for every workload. A
/// metric of a layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Roofline base: one thread, measured in this run.
    ("host.peak_gflops", "GFLOP/s"),
    ("host.triad_gbs", "GB/s"),
    // Kernels, timed from outside on fixed shapes.
    ("matrix.blas3.gemm_update_gflops", "GFLOP/s"),
    ("matrix.blas3.gemm_tile_gflops", "GFLOP/s"),
    ("matrix.blas3.gemm_frac_peak", "ratio"),
    ("matrix.blas3.trsm_gflops", "GFLOP/s"),
    ("matrix.lapack.getf2_gflops", "GFLOP/s"),
    ("matrix.lapack.rgetf2_gflops", "GFLOP/s"),
    ("matrix.tile.convert_gbs", "GB/s"),
    ("core.tslu.factor_s", "s"),
    ("core.tslu.pivots_s", "s"),
    ("core.tournament.reduce_pair_us", "us"),
    // Task graph and executors, without kernels.
    ("runtime.dag.build_us.factor", "us"),
    ("runtime.dag.build_us.solve", "us"),
    ("runtime.dag.tasks.factor", "count"),
    ("runtime.dag.tasks.solve", "count"),
    ("runtime.exec.serial_noop_us_per_task.factor", "us"),
    ("runtime.exec.serial_noop_us_per_task.solve", "us"),
    ("runtime.exec.threaded_noop_us_per_task.factor", "us"),
    ("runtime.exec.threaded_noop_us_per_task.solve", "us"),
    // Solves from finished factors.
    ("core.solve.solve_s", "s"),
    ("core.solve.solve_mat_s", "s"),
    ("core.solve.ir_solve_s", "s"),
    ("core.solve.ir_iterations", "count"),
    ("netsim.skeleton_calu_s", "s"),
    ("obs.recorder.span_ns", "ns"),
    // The traced workload: benchmark-side spans, self time per op.
    ("trace.ops", "count"),
    ("trace.self_ms.root", "ms"),
    ("trace.self_ms.gen", "ms"),
    ("trace.self_ms.factor", "ms"),
    ("trace.self_ms.dist_factor", "ms"),
    ("trace.self_ms.solve", "ms"),
    ("trace.self_ms.submit", "ms"),
    ("trace.self_ms.process", "ms"),
    ("trace.self_ms.take", "ms"),
    ("trace.self_ms.check", "ms"),
    ("trace.self_sum_err_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    // Executor time of the workload's ops, from the program's reports.
    ("core.rt.busy_ms.panel", "ms"),
    ("core.rt.busy_ms.swap", "ms"),
    ("core.rt.busy_ms.trsm", "ms"),
    ("core.rt.busy_ms.gemm", "ms"),
    ("core.rt.busy_ms.solve", "ms"),
    ("core.rt.busy_ms.comm", "ms"),
    ("core.rt.gemm_frac", "ratio"),
    ("core.rt.panel_frac", "ratio"),
    ("core.rt.idle_frac", "ratio"),
    ("core.rt.queue_delay_ms", "ms"),
    ("core.rt.tasks_per_op", "count"),
    // The same op another way.
    ("core.rt.serial_op_ms", "ms"),
    ("core.rt.parallel_efficiency", "ratio"),
    ("core.rt.resident_op_ms", "ms"),
    ("core.rt.tiles_op_ms", "ms"),
    // serve_mixed only.
    ("core.serve.submit_us", "us"),
    ("core.serve.process_hit_ms.b1", "ms"),
    ("core.serve.process_hit_ms.b16", "ms"),
    ("core.serve.process_miss_ms.small", "ms"),
    ("core.serve.process_miss_ms.large", "ms"),
    ("core.serve.hit_ratio", "ratio"),
    ("core.serve.evictions", "count"),
    ("core.serve.batches", "count"),
    ("core.serve.refused", "count"),
    // dist_grid only.
    ("core.dist_rt.tasks", "count"),
    ("core.comm.msgs", "count"),
    ("core.comm.words", "count"),
    ("core.dist_rt.busy_frac", "ratio"),
    ("core.dist_rt.modeled_makespan_s", "s"),
    ("core.comm.fetch_wait_s", "s"),
];
