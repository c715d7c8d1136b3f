//! The single-machine half of Algorithm 4, shared by every algorithm.
//!
//! The paper's split is that only the distributed jobs differ per
//! platform; "all other operations can easily run on a single machine".
//! Both algorithm families here are *pass-structured*: one-time jobs, then
//! a sequence of passes, each one distributed product followed by a small
//! driver step (PPCA-EM's iteration; the randomized arm's fat pass after
//! Li/Kluger/Tygert, arXiv:1612.08709). `run_passes` is the one loop
//! around those passes and owns everything that is the same for both:
//!
//! * input-shape checks and config validation;
//! * the run and per-pass trace windows, host spans and counters;
//! * the driver-memory reservation (four D×width matrices plus the mean);
//! * the divergence check, checkpoint resume, the per-pass checkpoint
//!   write, the injected crash and the stop rule, in that order;
//! * the per-pass category attribution, the run-ledger record and the
//!   [`SpcaRun`] it returns.
//!
//! A `PassAlgorithm` supplies only what differs: its `Names`, its
//! one-time jobs, its pass count, its checkpointed `(Mat, f64)` state and
//! one `step` per pass.
//!
//! **Resume rule.** A checkpoint is restored only while a pass remains
//! (`checkpoint.iteration < passes`) and its state has this run's shape.
//! Anything else — missing, lost, corrupt, mismatched, or written by the
//! last pass before a crash — is a fresh start, which is deterministic and
//! so reproduces the uninterrupted run bit for bit. Together with
//! `SpcaConfig::validate` (no zero iteration cap, no zero checkpoint
//! interval) this guarantees every run executes at least one pass.

use dcluster::SimCluster;
use linalg::{Mat, SparseMat};

use crate::accuracy;
use crate::checkpoint::EmCheckpoint;
use crate::config::SpcaConfig;
use crate::error::SpcaError;
use crate::model::{IterationStat, PcaModel, SpcaRun};
use crate::Result;

/// The input an engine's jobs stream over: shared by the EM and
/// randomized job surfaces ([`crate::em::EmJobs`], [`crate::rpca::RpcaJobs`]).
pub trait JobInput {
    /// Number of input rows N.
    fn num_rows(&self) -> usize;
    /// Number of input columns D.
    fn num_cols(&self) -> usize;
}

/// The names an algorithm's run carries in traces and telemetry.
pub(crate) struct Names {
    /// Run window and host span (`run_em`).
    pub run: &'static str,
    /// Per-pass window noun (`iteration` → `iteration 3`).
    pub pass: &'static str,
    /// Its plural: the run window's pass-count arg (`iterations`).
    pub passes: &'static str,
    /// Counter prefix (`em` → `em.error`).
    pub counters: &'static str,
    /// Per-pass category counter prefix (`em.iter` → `em.iter.cpu_secs`).
    pub pass_counters: &'static str,
    /// DFS name of the checkpoint, before job scoping.
    pub checkpoint_file: &'static str,
}

/// What one pass hands back to the loop.
pub(crate) struct Pass {
    /// The model after this pass; the last pass's model is the fit.
    pub model: PcaModel,
    /// Convergence telemetry plotted against virtual time.
    pub objective: f64,
    /// Reduced-precision divergence, when the algorithm measured one.
    pub divergence: Option<f64>,
}

/// One pass-structured algorithm driven by `run_passes`.
pub(crate) trait PassAlgorithm {
    /// Trace and telemetry names.
    const NAMES: Names;
    /// Input shape `(N, D)`.
    fn shape(&self) -> (usize, usize);
    /// Column count of the D×width driver state (the checkpointed matrix).
    fn width(&self) -> usize;
    /// Passes a run makes unless the stop rule fires first.
    fn passes(&self) -> usize;
    /// Algorithm-specific args of the run's trace window.
    fn run_args(&self) -> Vec<(&'static str, obs::ArgValue)>;
    /// The one-time distributed jobs. Re-run on a resume: they are
    /// deterministic, so recomputing them reproduces the original values.
    fn prepare(&mut self);
    /// The state a checkpoint stores after a pass.
    fn state(&self) -> (&Mat, f64);
    /// Restores a checkpointed state (already shape-checked).
    fn restore(&mut self, state: Mat, ss: f64);
    /// Runs pass `pass`. `telemetry` is set when a trace or ledger will
    /// record the pass, so optional instrumentation may be computed.
    fn step(&mut self, pass: usize, telemetry: bool) -> Result<Pass>;
}

/// Runs `alg` to completion on `cluster`.
///
/// `error_sample` is the pre-drawn row sample the per-pass accuracy
/// estimate uses; it is instrumentation and charged to neither engine.
pub(crate) fn run_passes<A: PassAlgorithm>(
    cluster: &SimCluster,
    alg: &mut A,
    error_sample: &SparseMat,
    config: &SpcaConfig,
) -> Result<SpcaRun> {
    let names = &A::NAMES;
    let (n, d_in) = alg.shape();
    let d = config.components;
    if n == 0 || d_in == 0 {
        return Err(SpcaError::EmptyInput);
    }
    if d > d_in.min(n) {
        return Err(SpcaError::TooManyComponents { requested: d, available: d_in.min(n) });
    }
    config.validate(d_in)?;
    let width = alg.width();
    let passes = alg.passes();

    let start_metrics = cluster.metrics();
    let start_time = start_metrics.virtual_time_secs;
    let start_intermediate = start_metrics.intermediate_bytes;
    // Run-ledger capture: skipped entirely (no record construction) when
    // no sink is installed.
    let ledger_on = obs::ledger::sink_enabled();
    let mut ledger_rows: Vec<obs::ledger::IterationRow> = Vec::new();

    let _run_host_span = obs::span_lazy("run", || format!("{} N={n} D={d_in} d={d}", names.run));
    if obs::enabled() {
        let mut args =
            vec![("N", (n as u64).into()), ("D", (d_in as u64).into()), ("d", (d as u64).into())];
        args.extend(alg.run_args());
        args.push(("codec", cluster.wire_codec().label().into()));
        cluster.trace_begin("run", names.run, args);
    }

    // The driver holds the D×width state, its update and scratch — all
    // O(D·width). This is the whole point of Figure 8: the driver's
    // memory does not grow with D².
    let driver_bytes = 4 * (d_in * width * 8) as u64 + (d_in * 8) as u64;
    let _driver_guard = cluster.alloc_driver(driver_bytes)?;

    alg.prepare();

    // Resume (see the module docs for the rule): recovery code must
    // tolerate anything a crash can leave behind.
    let mut pass = 1;
    let mut prev_error = f64::INFINITY;
    let checkpoint_file = crate::scoped_name(config, names.checkpoint_file);
    if config.checkpoint_every.is_some() {
        let restored = cluster
            .dfs()
            .get_blob(cluster, &checkpoint_file)
            .ok()
            .and_then(|blob| EmCheckpoint::decode(&blob).ok())
            .filter(|ck| ck.iteration < passes && (ck.c.rows(), ck.c.cols()) == (d_in, width));
        if let Some(ck) = restored {
            cluster.note_checkpoint_restored(ck.iteration as u64);
            pass = ck.iteration + 1;
            prev_error = ck.prev_error;
            alg.restore(ck.c, ck.ss);
        }
    }

    // An error sample with no non-zero value scores +inf by definition
    // (`accuracy::reconstruction_error`), so that infinity is no
    // divergence.
    let zero_sample = error_sample.norm1() == 0.0;
    let mut iterations: Vec<IterationStat> = Vec::new();
    let (model, final_error) = loop {
        let pass_cat_start = cluster.category_time_us();
        let window = format!("{} {pass}", names.pass);
        if obs::enabled() {
            cluster.trace_begin("iteration", &window, Vec::new());
        }
        let _pass_host_span =
            obs::span_lazy("iteration", || format!("{} {window}", names.counters));

        let step = alg.step(pass, obs::enabled() || ledger_on)?;

        // Instrumentation: sampled reconstruction error (not charged).
        let error = accuracy::reconstruction_error(error_sample, &step.model)?;
        let ss = step.model.noise_variance();
        iterations.push(IterationStat {
            iteration: pass,
            error,
            ss,
            virtual_time_secs: cluster.metrics().virtual_time_secs - start_time,
        });

        // Per-category time this pass spent, by diffing the cluster's
        // category meters across the pass.
        let pass_cat_end = cluster.category_time_us();
        let cat_us: [u64; 5] =
            std::array::from_fn(|i| pass_cat_end[i].saturating_sub(pass_cat_start[i]));
        if obs::enabled() {
            let prefix = names.counters;
            cluster.trace_counter(&format!("{prefix}.error"), error);
            cluster.trace_counter(&format!("{prefix}.ss"), ss);
            cluster.trace_counter(&format!("{prefix}.objective"), step.objective);
            if let Some(divergence) = step.divergence {
                cluster.trace_counter(&format!("{prefix}.precision.divergence"), divergence);
            }
            for (i, name) in obs::critpath::CATEGORIES.iter().enumerate() {
                cluster.trace_counter(
                    &format!("{}.{name}_secs", names.pass_counters),
                    cat_us[i] as f64 / 1e6,
                );
            }
            cluster.trace_end(
                "iteration",
                &window,
                vec![("error", error.into()), ("objective", step.objective.into())],
            );
        }
        if ledger_on {
            ledger_rows.push(obs::ledger::IterationRow {
                iteration: pass as u64,
                error,
                objective: step.objective,
                divergence: step.divergence.unwrap_or(f64::NAN),
                virtual_secs: cluster.metrics().virtual_time_secs - start_time,
                cat_us,
            });
        }

        // Divergence: overflowed arithmetic leaves a non-finite value in
        // the model or its sampled error. Stop before the pass reaches a
        // checkpoint or the caller's model. The objective counts only
        // when NaN: zero total variance (an all-zero or constant-row
        // input) scores -inf by its definition.
        let first_bad = |v: &[f64]| v.iter().copied().find(|x| !x.is_finite());
        let error_ok = error.is_finite() || (error == f64::INFINITY && zero_sample);
        let checks = [
            ("noise variance", first_bad(&[ss])),
            ("component", first_bad(step.model.components().data())),
            ("mean", first_bad(step.model.mean())),
            ("objective", Some(step.objective).filter(|o| o.is_nan())),
            ("sampled error", Some(error).filter(|_| !error_ok)),
        ];
        if let Some((quantity, value)) = checks.into_iter().find_map(|(q, v)| Some((q, v?))) {
            return Err(SpcaError::Diverged { pass, quantity, value });
        }

        // Pass-boundary checkpoint: the complete driver state after this
        // pass, written before the stop checks so a crash at any point
        // resumes to exactly this state.
        if let Some(every) = config.checkpoint_every {
            if pass % every == 0 {
                let (state, ss) = alg.state();
                let blob =
                    EmCheckpoint { iteration: pass, c: state.clone(), ss, prev_error: error }
                        .encode();
                let bytes = blob.len() as u64;
                cluster.dfs().put_blob(cluster, checkpoint_file.clone(), blob);
                cluster.note_checkpoint_written(pass as u64, bytes);
            }
        }
        // Injected driver crash (fault testing): state is on the DFS (if
        // checkpointing is on); the next fit on this cluster resumes.
        if config.crash_at_iteration == Some(pass) {
            return Err(SpcaError::DriverCrashed { iteration: pass });
        }

        // STOP_CONDITION.
        let target_met = config.target_error.is_some_and(|target| error <= target);
        let plateaued = config.rel_tolerance.is_some_and(|tol| {
            prev_error.is_finite() && (prev_error - error).abs() <= tol * prev_error.abs()
        });
        if target_met || plateaued || pass >= passes {
            break (step.model, error);
        }
        prev_error = error;
        pass += 1;
    };

    // The run completed: its checkpoint (if any) is spent. Removing it
    // keeps a later, unrelated fit on this cluster from resuming into the
    // wrong run.
    if config.checkpoint_every.is_some() {
        let _ = cluster.dfs().delete(&checkpoint_file);
    }

    if obs::enabled() {
        cluster.trace_end("run", names.run, vec![(names.passes, (iterations.len() as u64).into())]);
    }
    let end = cluster.metrics();
    if ledger_on {
        let mut fingerprint = config.fingerprint();
        fingerprint.extend(cluster.config().fingerprint());
        fingerprint.push(("engine".to_string(), cluster.trace_label()));
        fingerprint.sort();
        let attribution_us: [u64; 5] =
            std::array::from_fn(|i| end.time_us[i].saturating_sub(start_metrics.time_us[i]));
        obs::ledger::record_run(obs::ledger::RunRecord {
            label: cluster.trace_label(),
            config: fingerprint,
            model_hash: format!("{:016x}", model.content_hash()),
            iterations_run: iterations.len() as u64,
            final_error,
            virtual_time_secs: end.virtual_time_secs - start_time,
            bytes: vec![
                ("network_bytes".into(), end.network_bytes - start_metrics.network_bytes),
                (
                    "dfs_bytes_written".into(),
                    end.dfs_bytes_written - start_metrics.dfs_bytes_written,
                ),
                ("dfs_bytes_read".into(), end.dfs_bytes_read - start_metrics.dfs_bytes_read),
                ("intermediate_bytes".into(), end.intermediate_bytes - start_intermediate),
            ],
            attribution_us,
            clock_violations: end.clock_violations - start_metrics.clock_violations,
            registry: cluster.registry().snapshot(),
            iterations: ledger_rows,
        });
    }
    Ok(SpcaRun {
        model,
        iterations,
        virtual_time_secs: end.virtual_time_secs - start_time,
        intermediate_bytes: end.intermediate_bytes - start_intermediate,
    })
}
