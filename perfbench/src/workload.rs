//! The four workloads: input generation from the seed, one timed rep,
//! and the exact outputs each rep is checked on.

use std::sync::Arc;
use std::time::Instant;

use dcluster::cluster::EngineStats;
use dcluster::{ClusterConfig, MetricsSnapshot, SchedulerPolicy, SimCluster, TimingModel};
use linalg::{Prng, SparseMat, WorkerPool};
use spca_core::serving::{
    run_serving, FitJob, ServeLoad, ServeSpec, ServingOutcome, TenantWorkload,
};
use spca_core::{accuracy, Algorithm, Spca, SpcaConfig, SpcaRun};

use crate::host;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TweetsEmSpark,
    TweetsRpcaMr,
    Contended1000,
    ServeFairshare,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "tweets-em-spark" => Some(Kind::TweetsEmSpark),
            "tweets-rpca-mr" => Some(Kind::TweetsRpcaMr),
            "contended-1000" => Some(Kind::Contended1000),
            "serve-fairshare" => Some(Kind::ServeFairshare),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Spark,
    MapReduce,
}

pub struct FitInput {
    pub y: SparseMat,
    pub config: SpcaConfig,
    pub engine: Engine,
}

/// The serving mix's shape (the full shape of `bench_serving`).
const SERVE_NODES: usize = 128;
const SERVE_CORES_PER_NODE: usize = 8;
const HEAVY_JOBS: usize = 10;
const LIGHT_TENANTS: usize = 4;
const BATCHES_PER_TENANT: usize = 2_600;
const BATCH_ROWS: usize = 100;
const RATE_PER_SEC: f64 = 60.0;
const FIT_ROWS: usize = 2_000;
const FIT_COLS: usize = 500;

pub enum Input {
    Fit(Box<FitInput>),
    Serve(ServeSpec),
}

/// A workload's generated inputs plus the cluster it runs on.
pub struct Workload {
    pub cluster: ClusterConfig,
    pub input: Input,
}

fn random_sparse(rng: &mut Prng, rows: usize, cols: usize, density: f64) -> SparseMat {
    let target = ((rows * cols) as f64 * density) as usize;
    let triplets: Vec<(usize, u32, f64)> = (0..target)
        .map(|_| (rng.index(rows), rng.index(cols) as u32, rng.normal()))
        .collect();
    SparseMat::from_triplets(rows, cols, &triplets)
}

fn fit_matrix(seed: u64) -> Arc<SparseMat> {
    let spec = datasets::LowRankSpec {
        rows: FIT_ROWS,
        cols: FIT_COLS,
        ..datasets::LowRankSpec::small_test()
    };
    Arc::new(datasets::sparse_lowrank(
        &spec,
        &mut Prng::seed_from_u64(seed),
    ))
}

/// The skewed mix: a heavy tenant floods whole-cluster fit jobs at t≈0
/// and never serves; each light tenant submits one small fit behind the
/// flood and serves its batch stream once that model lands. Seed 0
/// reproduces `bench_serving`'s full-shape mix bit for bit.
fn serve_spec(seed: u64, total_cores: usize) -> ServeSpec {
    let config = |s: u64| {
        SpcaConfig::new(8)
            .with_max_iters(3)
            .with_seed(s)
            .with_rel_tolerance(None)
    };
    let heavy_y = fit_matrix(seed.wrapping_add(101));
    let mut spec = ServeSpec::new(0x5e41 ^ seed);
    let heavy_jobs = (0..HEAVY_JOBS)
        .map(|i| FitJob {
            id: format!("heavy-{i}"),
            submit_secs: 0.01 * i as f64,
            cores: total_cores,
            y: Arc::clone(&heavy_y),
            config: config(29),
        })
        .collect();
    spec.tenants.push(TenantWorkload {
        name: "heavy".into(),
        fit_jobs: heavy_jobs,
        ..Default::default()
    });
    for t in 0..LIGHT_TENANTS {
        let y = fit_matrix(seed.wrapping_add(200 + t as u64));
        spec.tenants.push(TenantWorkload {
            name: format!("light-{t}"),
            fit_jobs: vec![FitJob {
                id: format!("light-{t}-fit"),
                submit_secs: 0.5 + 0.1 * t as f64,
                cores: (total_cores / 8).max(1),
                y: Arc::clone(&y),
                config: config(31 + t as u64),
            }],
            serve: Some(ServeLoad {
                pool: y,
                batches: BATCHES_PER_TENANT,
                batch_rows: BATCH_ROWS,
                rate_per_sec: RATE_PER_SEC,
                start_secs: 0.0,
            }),
            model: None,
        });
    }
    spec
}

impl Workload {
    /// Generates the workload's inputs from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let tweets_fit = |config: SpcaConfig, engine| {
            Input::Fit(Box::new(FitInput {
                y: datasets::tweets::generate(40_000, 8_000, &mut Prng::seed_from_u64(seed)),
                config: config
                    .with_rel_tolerance(None)
                    .with_partitions(8)
                    .with_seed(7),
                engine,
            }))
        };
        let (cluster, input) = match kind {
            Kind::TweetsEmSpark => (
                ClusterConfig::scaled_cluster(),
                tweets_fit(SpcaConfig::new(50).with_max_iters(8), Engine::Spark),
            ),
            Kind::TweetsRpcaMr => (
                ClusterConfig::scaled_cluster(),
                tweets_fit(
                    SpcaConfig::new(50)
                        .with_algorithm(Algorithm::Randomized)
                        .with_rpca_oversample(10)
                        .with_rpca_power_iters(2),
                    Engine::MapReduce,
                ),
            ),
            Kind::Contended1000 => (
                ClusterConfig::scaled_cluster()
                    .with_nodes(1_000)
                    .with_timing(TimingModel::Contended),
                Input::Fit(Box::new(FitInput {
                    y: random_sparse(&mut Prng::seed_from_u64(seed), 8_000, 1_000, 2e-3),
                    config: SpcaConfig::new(8)
                        .with_max_iters(3)
                        .with_rel_tolerance(None)
                        .with_partitions(2_001)
                        .with_seed(7),
                    engine: Engine::Spark,
                })),
            ),
            Kind::ServeFairshare => {
                let cluster = ClusterConfig::paper_cluster()
                    .with_nodes(SERVE_NODES)
                    .with_cores_per_node(SERVE_CORES_PER_NODE)
                    .with_scheduler(SchedulerPolicy::FairShare)
                    .with_fair_share_weights(vec![1.0; LIGHT_TENANTS + 1]);
                let spec = serve_spec(seed, cluster.total_cores());
                (cluster, Input::Serve(spec))
            }
        };
        Workload { cluster, input }
    }

    /// Input rows × columns and non-zeros, for the log line.
    pub fn describe(&self) -> String {
        match &self.input {
            Input::Fit(f) => format!(
                "{}x{} ({} nnz), d={}, {} partitions",
                f.y.rows(),
                f.y.cols(),
                f.y.nnz(),
                f.config.components,
                f.config.partitions.unwrap_or(0)
            ),
            Input::Serve(s) => format!(
                "{} tenants, {} nodes, {} fit jobs, {} serve batches",
                s.tenants.len(),
                self.cluster.nodes,
                s.tenants.iter().map(|t| t.fit_jobs.len()).sum::<usize>(),
                s.tenants
                    .iter()
                    .filter_map(|t| t.serve.as_ref())
                    .map(|l| l.batches)
                    .sum::<usize>()
            ),
        }
    }
}

/// What one rep produced.
pub enum Output {
    Fit(SpcaRun),
    Serve(ServingOutcome),
}

/// Operations one serving mix attempts: every fit job plus every batch.
fn serve_ops(spec: &ServeSpec) -> u64 {
    let jobs: usize = spec.tenants.iter().map(|t| t.fit_jobs.len()).sum();
    let batches: usize = spec
        .tenants
        .iter()
        .filter_map(|t| t.serve.as_ref())
        .map(|l| l.batches)
        .sum();
    (jobs + batches) as u64
}

/// One rep: a fresh cluster on the shared pool, then one fit or one
/// whole serving mix, timed from the call to its return.
pub struct Rep {
    pub host_s: f64,
    pub cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub output: Option<Output>,
    pub metrics: MetricsSnapshot,
    pub engine: Option<EngineStats>,
    pub task_retries: u64,
    pub cache_evictions: u64,
}

pub fn run_rep(w: &Workload, cluster_cfg: &ClusterConfig, pool: &Arc<WorkerPool>) -> Rep {
    let cluster = SimCluster::new_with_pool(cluster_cfg.clone(), Arc::clone(pool));
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let output = match &w.input {
        Input::Fit(f) => {
            let spca = Spca::new(f.config.clone());
            let run = match f.engine {
                Engine::Spark => spca.fit_spark(&cluster, &f.y),
                Engine::MapReduce => spca.fit_mapreduce(&cluster, &f.y),
            };
            run.map(Output::Fit).map_err(|e| e.to_string())
        }
        Input::Serve(spec) => run_serving(&cluster, spec)
            .map(Output::Serve)
            .map_err(|e| e.to_string()),
    };
    let host_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let (attempted, failed) = match (&w.input, &output) {
        (Input::Fit(_), Ok(_)) => (1, 0),
        (Input::Fit(_), Err(_)) => (1, 1),
        (Input::Serve(spec), Ok(Output::Serve(o))) => (
            serve_ops(spec),
            o.schedule.rejected.len() as u64 + o.rejected_total,
        ),
        (Input::Serve(spec), _) => (serve_ops(spec), serve_ops(spec)),
    };
    if let Err(e) = &output {
        eprintln!("perfbench: rep failed: {e}");
    }
    let registry = cluster.registry();
    Rep {
        host_s,
        cpu_s,
        attempted,
        failed,
        output: output.ok(),
        metrics: cluster.metrics(),
        engine: cluster.engine_stats(),
        task_retries: registry.counter("faults.task_reattempts").get(),
        cache_evictions: registry.counter("serve.cache_evictions").get(),
    }
}

/// The exact outputs of one rep: identical on every rep of a run, and
/// the subject of the cross-configuration checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    /// Model content hash (fits) or serving trace hash.
    pub hash: u64,
    pub intermediate_bytes: u64,
    pub driver_peak_bytes: u64,
    pub final_error_bits: u64,
    pub first_error_bits: Option<u64>,
}

impl Exact {
    pub fn final_error(&self) -> f64 {
        f64::from_bits(self.final_error_bits)
    }
}

/// Sampled reconstruction error of each served tenant's model, on a
/// 256-row sample of its own fit input.
fn serving_errors(spec: &ServeSpec, out: &ServingOutcome) -> Vec<f64> {
    spec.tenants
        .iter()
        .zip(&out.models)
        .filter_map(|(t, m)| Some((t.fit_jobs.first()?, m.as_ref()?)))
        .map(|(job, model)| {
            let sample = accuracy::sample_rows(&job.y, 256, job.config.seed);
            accuracy::reconstruction_error(&sample, model).unwrap_or(f64::NAN)
        })
        .collect()
}

pub fn exact(w: &Workload, rep: &Rep) -> Option<Exact> {
    let out = rep.output.as_ref()?;
    let (hash, final_error, first_error) = match (out, &w.input) {
        (Output::Fit(run), _) => (
            run.model.content_hash(),
            run.final_error(),
            run.iterations.first().map(|s| s.error.to_bits()),
        ),
        (Output::Serve(o), Input::Serve(spec)) => {
            // The worst tenant's model stands for the mix; a NaN anywhere
            // survives into the result so the finiteness check sees it.
            let errors = serving_errors(spec, o);
            let worst = if errors.is_empty() || errors.iter().any(|e| e.is_nan()) {
                f64::NAN
            } else {
                errors.into_iter().fold(f64::NEG_INFINITY, f64::max)
            };
            (o.trace_hash, worst, None)
        }
        (Output::Serve(_), Input::Fit(_)) => unreachable!("a fit workload produces fits"),
    };
    Some(Exact {
        hash,
        intermediate_bytes: rep.metrics.intermediate_bytes,
        driver_peak_bytes: rep.metrics.driver_peak_bytes,
        final_error_bits: final_error.to_bits(),
        first_error_bits: first_error,
    })
}

/// Virtual makespan of a rep: the fit's virtual time or the serving
/// mix's makespan.
pub fn virtual_s(rep: &Rep) -> Option<f64> {
    match rep.output.as_ref()? {
        Output::Fit(run) => Some(run.virtual_time_secs),
        Output::Serve(o) => Some(o.makespan_secs),
    }
}
