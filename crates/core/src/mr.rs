//! sPCA on the MapReduce engine (Section 4.1).
//!
//! Four job types, mirroring the paper's implementation:
//!
//! * `meanJob`, `FnormJob` — one-time lightweight jobs before the loop.
//! * `YtXJob` — the consolidated pass. Its mapper is a *stateful
//!   combiner*: per-partition `XtX-p`/`YtX-p` partials and the hoisted
//!   `Σx` are accumulated in mapper memory and emitted once at cleanup,
//!   so mapper output stays O(d² + z·d) per mapper instead of O(rows·d).
//!   A *composite key* routes all `XtX-p` partials to one reducer (they
//!   are d×d and tiny) while `YtX` rows spread across reducers by row
//!   index — exactly the paper's key design.
//! * `ss3Job` — emits a single scalar per mapper (the paper: "the mapper
//!   output of this job is a scalar, which reduces the amount of
//!   intermediate data").
//!
//! The randomized arm ([`crate::rpca`]) shares `fit_with_input`, the one
//! MapReduce input pipeline, and runs every job as a `PartitionJob`.

use dcluster::SimCluster;
use linalg::bytes::ByteSized;
use linalg::wire::{self, Wire, WireError, WireReader};
use linalg::{Mat, SparseMat};
use mapreduce::{Emitter, MapReduceEngine, MapReduceJob};

use crate::config::{Algorithm, SpcaConfig};
use crate::driver::JobInput;
use crate::em::{fit_em, EmJobs};
use crate::frobenius;
use crate::mean_prop::{ss3_block_prec, ytx_counter_snapshot, YtxPartial};
use crate::model::SpcaRun;
use crate::rpca::{run_rpca, RpcaJobs};
use crate::Result;

/// Composite shuffle key of the `YtXJob`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum MrKey {
    /// All `XtX-p` partials — routed to a single reducer.
    XtX,
    /// All hoisted `Σx` partials — single reducer.
    SumX,
    /// Row-count partials (sanity bookkeeping).
    Count,
    /// One key per touched `YtX` row — spreads across reducers.
    Row(u32),
}

impl ByteSized for MrKey {
    fn size_bytes(&self) -> u64 {
        match self {
            MrKey::Row(_) => 5,
            _ => 1,
        }
    }
}

/// Wire layout: one tag byte, plus a varint row index for [`MrKey::Row`].
impl Wire for MrKey {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            MrKey::XtX => out.push(0),
            MrKey::SumX => out.push(1),
            MrKey::Count => out.push(2),
            MrKey::Row(c) => {
                out.push(3);
                wire::write_uvarint(out, u64::from(*c));
            }
        }
    }
    fn encoded_size(&self) -> u64 {
        match self {
            MrKey::Row(c) => 1 + wire::uvarint_len(u64::from(*c)),
            _ => 1,
        }
    }
    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(MrKey::XtX),
            1 => Ok(MrKey::SumX),
            2 => Ok(MrKey::Count),
            3 => Ok(MrKey::Row(u32::decode_from(r)?)),
            _ => Err(WireError::Malformed("unknown MrKey tag")),
        }
    }
}

/// The one-time `meanJob`/`FnormJob` and the per-iteration `ss3Job`:
/// each mapper emits one value under the single key `()` — a column-sum
/// vector or a scalar (the paper: "the mapper output of this job is a
/// scalar, which reduces the amount of intermediate data") — and one
/// reducer folds them with `reduce`.
struct SumJob<'f, T> {
    map: &'f (dyn Fn(&SparseMat) -> T + Sync),
    reduce: fn(Vec<T>) -> T,
}

impl<T: Send + Wire> MapReduceJob for SumJob<'_, T> {
    type Input = SparseMat;
    type Key = ();
    type Value = T;
    type Output = T;

    fn map(&self, block: &SparseMat, emitter: &mut Emitter<(), T>) {
        emitter.emit((), (self.map)(block));
    }

    fn reduce(&self, _key: (), values: Vec<T>) -> T {
        (self.reduce)(values)
    }
}

/// The consolidated `YtXJob` with a stateful-combiner mapper.
struct YtXJob {
    cm: Mat,
    xm: Vec<f64>,
    d: usize,
    precision: linalg::Precision,
}

impl MapReduceJob for YtXJob {
    type Input = SparseMat;
    type Key = MrKey;
    type Value = Vec<f64>;
    type Output = Vec<f64>;

    fn map(&self, block: &SparseMat, emitter: &mut Emitter<MrKey, Vec<f64>>) {
        // Stateful combiner: fold the whole partition into in-memory
        // partials through the batched kernels (the block is already a
        // CSR matrix — no reassembly needed), emit once at "cleanup".
        let mut partial = YtxPartial::new(self.d);
        partial.add_block_prec(block, &self.cm, &self.xm, self.precision);
        emitter.emit(MrKey::XtX, partial.xtx.data().to_vec());
        emitter.emit(MrKey::SumX, partial.sum_x.clone());
        emitter.emit(MrKey::Count, vec![partial.rows_seen as f64]);
        for (c, row) in partial.ytx_iter() {
            emitter.emit(MrKey::Row(c), row.to_vec());
        }
    }

    fn reduce(&self, _key: MrKey, values: Vec<Vec<f64>>) -> Vec<f64> {
        sum_vectors(values)
    }
}

fn sum_vectors(mut values: Vec<Vec<f64>>) -> Vec<f64> {
    let mut acc = values.pop().expect("reducer gets at least one value");
    for v in values {
        linalg::vector::axpy(1.0, &v, &mut acc);
    }
    acc
}

/// A randomized-arm job: one partial per partition, keyed by partition
/// index. Unlike the EM jobs (which reduce across partitions at the
/// reducers), exactly one value arrives per key, so the reducer is an
/// identity pass-through and the sorted job output is the partials in
/// partition order — the property the cross-engine bitwise bar rests on.
/// The engine still meters the partials as shuffle data (they really do
/// cross the network to wherever the driver-side fold runs) and still
/// pays job init, spills and re-execution.
struct PartitionJob<'f, T> {
    f: &'f (dyn Fn(&SparseMat) -> T + Sync),
}

impl<T: Send + Wire> MapReduceJob for PartitionJob<'_, T> {
    type Input = (u32, SparseMat);
    type Key = u32;
    type Value = T;
    type Output = T;

    fn map(&self, (partition, block): &(u32, SparseMat), emitter: &mut Emitter<u32, T>) {
        emitter.emit(*partition, (self.f)(block));
    }

    fn reduce(&self, _key: u32, mut values: Vec<T>) -> T {
        values.pop().expect("one partial per partition key")
    }
}

/// The jobs over one input split into `blocks`: plain CSR blocks for EM,
/// `(partition, block)` pairs for the randomized arm's partition keys.
struct MrJobs<'a, B> {
    engine: MapReduceEngine<'a>,
    blocks: Vec<B>,
    n: usize,
    d_in: usize,
    d: usize,
    reducers: usize,
    precision: linalg::Precision,
}

impl<'a, B> MrJobs<'a, B> {
    fn new(cluster: &'a SimCluster, y: &SparseMat, config: &SpcaConfig, blocks: Vec<B>) -> Self {
        MrJobs {
            engine: MapReduceEngine::new(cluster),
            blocks,
            n: y.rows(),
            d_in: y.cols(),
            d: config.components,
            reducers: cluster.config().nodes.max(1),
            precision: config.precision,
        }
    }
}

impl<B> JobInput for MrJobs<'_, B> {
    fn num_rows(&self) -> usize {
        self.n
    }

    fn num_cols(&self) -> usize {
        self.d_in
    }
}

impl EmJobs for MrJobs<'_, SparseMat> {
    fn mean_job(&mut self) -> Vec<f64> {
        let mut mean = self.sum_job("meanJob", &|block| block.col_sums(), sum_vectors);
        linalg::vector::scale(1.0 / self.n as f64, &mut mean);
        mean
    }

    fn fnorm_job(&mut self, mean: &[f64]) -> f64 {
        let msum = linalg::vector::norm2_sq(mean);
        let partial = |block: &SparseMat| frobenius::centered_sq_block(block, mean, msum);
        self.sum_job("FnormJob", &partial, |v| v.iter().sum())
    }

    fn ytx_job(&mut self, cm: &Mat, xm: &[f64]) -> YtxPartial {
        // Distributed-cache shipment of the broadcast matrices (CM, Xm),
        // priced under the cluster's sizing policy.
        let cluster = self.engine.cluster();
        cluster.charge_broadcast(cluster.wire_size(cm) + cluster.sizing().f64_payload(xm.len()));
        let job =
            YtXJob { cm: cm.clone(), xm: xm.to_vec(), d: self.d, precision: self.precision };
        let before = ytx_counter_snapshot();
        let (out, _) = self.engine.run_job("YtXJob", &job, &self.blocks, self.reducers);
        if obs::enabled() {
            let after = ytx_counter_snapshot();
            let cluster = self.engine.cluster();
            cluster.trace_counter("em.ytx.flops", (after.0 - before.0) as f64);
            cluster.trace_counter("em.ytx.batch_rows", (after.1 - before.1) as f64);
        }
        let mut partial = YtxPartial::new(self.d);
        for (key, value) in out {
            match key {
                MrKey::XtX => partial.xtx = Mat::from_vec(self.d, self.d, value),
                MrKey::SumX => partial.sum_x = value,
                MrKey::Count => partial.rows_seen = value[0] as u64,
                // Reduced keys arrive in ascending MrKey order, so the
                // packed insert is an append each time.
                MrKey::Row(c) => partial.set_ytx_row(c, &value),
            }
        }
        partial
    }

    fn ss3_job(&mut self, cm: &Mat, xm: &[f64], c_new: &Mat) -> f64 {
        // ss3Job re-ships CM/Xm plus the updated C (each MR job re-reads
        // its distributed cache; nothing persists across jobs).
        let cluster = self.engine.cluster();
        cluster.charge_broadcast(
            cluster.wire_size(cm)
                + cluster.sizing().f64_payload(xm.len())
                + cluster.wire_size(c_new),
        );
        let precision = self.precision;
        let partial = |block: &SparseMat| ss3_block_prec(block, cm, xm, c_new, precision);
        self.sum_job("ss3Job", &partial, |v| v.iter().sum())
    }
}

impl MrJobs<'_, SparseMat> {
    /// Runs a [`SumJob`] on one reducer and returns its single output.
    fn sum_job<T: Send + Wire>(
        &self,
        label: &str,
        map: &(dyn Fn(&SparseMat) -> T + Sync),
        reduce: fn(Vec<T>) -> T,
    ) -> T {
        let (out, _) = self.engine.run_job(label, &SumJob { map, reduce }, &self.blocks, 1);
        out.into_iter().next().expect("one reducer output").1
    }
}

impl RpcaJobs for MrJobs<'_, (u32, SparseMat)> {
    fn per_partition<T>(
        &mut self,
        label: &str,
        wide: bool,
        f: &(dyn Fn(&SparseMat) -> T + Sync),
    ) -> Vec<T>
    where
        T: Clone + Send + Sync + Wire,
    {
        let reducers = if wide { self.reducers } else { 1 };
        let (out, _) = self.engine.run_job(label, &PartitionJob { f }, &self.blocks, reducers);
        out.into_iter().map(|(_, v)| v).collect()
    }
}

/// Fits sPCA on the MapReduce engine. With a `job_id` set the input
/// file and stage labels are scoped to `jobs/<id>/` like the Spark
/// engine's, so concurrent tenants on one cluster never collide.
pub fn fit(cluster: &SimCluster, y: &SparseMat, config: &SpcaConfig) -> Result<SpcaRun> {
    config.validate(y.cols())?;
    let input = crate::scoped_name(config, "input/Y");
    let run = fit_with_input(cluster, y, config, &input);
    cluster.set_job_scope(None);
    run
}

/// [`fit`] with an explicit DFS name for the materialized input (the
/// smart-guess warm-up uses a separate name for its row sample).
///
/// The one MapReduce input pipeline: both algorithms share everything up
/// to the dispatch on [`SpcaConfig::algorithm`], mirroring
/// `spark::fit_with_input`.
fn fit_with_input(
    cluster: &SimCluster,
    y: &SparseMat,
    config: &SpcaConfig,
    input_file: &str,
) -> Result<SpcaRun> {
    let randomized = config.algorithm == Algorithm::Randomized;
    if obs::enabled() {
        cluster.set_trace_label(if randomized { "rPCA-MR" } else { "sPCA-MR" });
    }
    cluster.set_job_scope(config.job_id.as_deref());
    let partitions = config
        .partitions
        .unwrap_or_else(|| cluster.config().total_cores())
        .min(y.rows().max(1));
    let blocks = y.split_rows(partitions);

    // HDFS-materialized input: MapReduce recovery re-reads failed tasks'
    // splits from here (sized per task by the engine), and node crashes
    // re-replicate it like any other file — sized at its encoded CSR
    // length under the default policy, so re-reads match the real file.
    cluster.dfs().seed(cluster, input_file, cluster.wire_size(y));

    let error_sample = crate::accuracy::sample_rows(y, config.error_sample_rows, config.seed);
    if randomized {
        let keyed = blocks.into_iter().enumerate().map(|(i, b)| (i as u32, b)).collect();
        let mut jobs = MrJobs::new(cluster, y, config, keyed);
        return run_rpca(cluster, &mut jobs, &error_sample, config);
    }
    let mut jobs = MrJobs::new(cluster, y, config, blocks);
    fit_em(cluster, &mut jobs, y, &error_sample, config, |sample, warm, input| {
        fit_with_input(cluster, sample, warm, input)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster::ClusterConfig;

    #[test]
    fn mr_key_ordering_groups_small_keys_first() {
        let mut keys = vec![MrKey::Row(7), MrKey::SumX, MrKey::Row(0), MrKey::XtX, MrKey::Count];
        keys.sort();
        assert_eq!(
            keys,
            vec![MrKey::XtX, MrKey::SumX, MrKey::Count, MrKey::Row(0), MrKey::Row(7)]
        );
    }

    #[test]
    fn fit_runs_on_tiny_data() {
        let mut rng = linalg::Prng::seed_from_u64(4);
        let spec = datasets::LowRankSpec::small_test();
        let y = datasets::sparse_lowrank(&spec, &mut rng);
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        let run = fit(&cluster, &y, &SpcaConfig::new(3).with_max_iters(4)).unwrap();
        assert_eq!(run.model.output_dim(), 3);
        let first = run.iterations.first().unwrap().error;
        assert!(run.final_error() <= first);
        // MapReduce pays per-job overheads: 2 + 2·iters jobs at ≥6 s each.
        assert!(run.virtual_time_secs >= 6.0 * 2.0);
    }

    #[test]
    fn mapreduce_matches_spark_exactly() {
        // Same seed, same math: the two platforms must agree to numerical
        // round-off — the paper's claim that the design is platform
        // independent.
        let mut rng = linalg::Prng::seed_from_u64(5);
        let spec = datasets::LowRankSpec::small_test();
        let y = datasets::sparse_lowrank(&spec, &mut rng);
        let config = SpcaConfig::new(3).with_max_iters(3).with_rel_tolerance(None);

        let c1 = SimCluster::new(ClusterConfig::paper_cluster());
        let mr_run = fit(&c1, &y, &config).unwrap();
        let c2 = SimCluster::new(ClusterConfig::paper_cluster());
        let spark_run = crate::spark::fit(&c2, &y, &config).unwrap();

        assert!(
            mr_run
                .model
                .components()
                .approx_eq(spark_run.model.components(), 1e-8),
            "C diverged between platforms"
        );
        assert!(
            (mr_run.model.noise_variance() - spark_run.model.noise_variance()).abs() < 1e-10
        );
    }
}
