//! The repository's benchmark: four fixed workloads, end-to-end metrics
//! measured untraced, per-layer metrics from a separate traced run. See
//! `README.md` beside this crate for how to run and read it.

pub mod stats;

/// One reported metric: its name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "tweets-em-spark",
    "tweets-rpca-mr",
    "contended-1000",
    "serve-fairshare",
];

/// Metrics printed by an untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[Metric] = &[
    m("host_s", "s", "lower"),
    m("host_cpu_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("virtual_s", "s", "lower"),
    m("intermediate_bytes", "bytes", "lower"),
    m("final_error", "ratio", "lower"),
    m("driver_peak_bytes", "bytes", "lower"),
    m("ok_frac", "frac", "higher"),
];

/// Metrics printed by a traced run (`--trace 1`), on every workload; a
/// layer that does no work on a workload reports zero.
pub const PER_LAYER: &[Metric] = &[
    m("kernels.ytx_s", "s", "lower"),
    m("kernels.ss3_s", "s", "lower"),
    m("kernels.rpca_pass_s", "s", "lower"),
    m("kernels.flops", "count", "lower"),
    m("kernels.gflops", "GFLOP/s", "higher"),
    m("kernels.flops_per_byte", "flop/B", "higher"),
    m("stage.task_s", "s", "lower"),
    m("stage.count", "count", "lower"),
    m("stage.tasks", "count", "lower"),
    m("engine.pool_util", "frac", "higher"),
    m("engine.reassemble_s", "s", "lower"),
    m("engine.merge_s", "s", "lower"),
    m("engine.task_retries", "count", "lower"),
    m("wire.encode_s", "s", "lower"),
    m("wire.network_bytes", "bytes", "lower"),
    m("wire.dfs_written_bytes", "bytes", "lower"),
    m("wire.dfs_read_bytes", "bytes", "lower"),
    m("sim.events", "count", "lower"),
    m("sim.resolves", "count", "lower"),
    m("sim.resolves_per_event", "ratio", "lower"),
    m("sim.peak_flows", "count", "lower"),
    m("sim.host_s", "s", "lower"),
    m("sim.events_per_host_s", "1/s", "higher"),
    m("virtual.cpu_s", "s", "lower"),
    m("virtual.scheduler_s", "s", "lower"),
    m("virtual.network_s", "s", "lower"),
    m("virtual.disk_s", "s", "lower"),
    m("virtual.recovery_s", "s", "lower"),
    m("driver.update_s", "s", "lower"),
    m("driver.assemble_s", "s", "lower"),
    m("driver.error_s", "s", "lower"),
    m("driver.recover_s", "s", "lower"),
    m("driver.orthonormalize_s", "s", "lower"),
    m("serve.project_s", "s", "lower"),
    m("serve.requests", "count", "higher"),
    m("serve.batches", "count", "higher"),
    m("serve.rejected", "count", "lower"),
    m("serve.cache_hit_rate", "frac", "higher"),
    m("serve.cache_evictions", "count", "lower"),
    m("serve.model_broadcasts", "count", "lower"),
    m("serve.events", "count", "lower"),
    m("serve.p99_virtual_s", "s", "lower"),
    m("jobs.completed", "count", "higher"),
    m("jobs.rejected", "count", "lower"),
    m("jobs.light_wait_p99_virtual_s", "s", "lower"),
    m("obs.trace_overhead_frac", "frac", "lower"),
];
