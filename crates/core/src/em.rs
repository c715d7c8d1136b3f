//! PPCA-EM (Algorithm 4) as one `PassAlgorithm`.
//!
//! The paper stresses that only three computations are distributed — the
//! consolidated `YtX`/`XtX` job, the `ss3` job, and the one-time
//! mean/Frobenius jobs — while "all other operations can easily run on a
//! single machine" in the driver. That split is made literal here: the
//! [`EmJobs`] trait is the distributed surface (implemented once per
//! engine in [`crate::spark`] and [`crate::mr`]), and this module supplies
//! only EM's driver step — lines 6–14 of one iteration. The loop around it
//! (resume, checkpoints, stop rule, traces, ledger) is the shared
//! `crate::driver::run_passes`, which also drives the randomized arm.

use dcluster::SimCluster;
use linalg::decomp::cholesky::solve_spd_right;
use linalg::decomp::lu::Lu;
use linalg::{Mat, SparseMat};

use crate::checkpoint;
use crate::config::SpcaConfig;
use crate::driver::{run_passes, JobInput, Names, Pass, PassAlgorithm};
use crate::init;
use crate::mean_prop::{ss3_finalize, YtxPartial};
use crate::model::{PcaModel, SpcaRun};
use crate::Result;

/// The distributed jobs an engine must provide.
pub trait EmJobs: JobInput {
    /// `meanJob`: column means of `Y` (Algorithm 4, line 3).
    fn mean_job(&mut self) -> Vec<f64>;
    /// `FnormJob`: `‖Y − 1⊗mean‖²_F` via Algorithm 3 (line 4).
    fn fnorm_job(&mut self, mean: &[f64]) -> f64;
    /// Consolidated `YtXJob` (line 9): one distributed pass computing the
    /// `XtX` and `YtX` contributions and the hoisted `Σx`, recomputing `X`
    /// on demand from the broadcast `CM` and `Xm`.
    fn ytx_job(&mut self, cm: &Mat, xm: &[f64]) -> YtxPartial;
    /// `ss3Job` (line 13): distributed part of ss3 (`Σ xᵢ·(C'yᵢ')`).
    fn ss3_job(&mut self, cm: &Mat, xm: &[f64], c_new: &Mat) -> f64;
}

/// Relative max-abs divergence between the reduced-precision arm's
/// `YtXJob` partial and the `f64` reference, both computed on the same
/// small row sample. Driver-local instrumentation: never shipped, never
/// charged.
pub(crate) fn precision_divergence(
    sample: &SparseMat,
    cm: &Mat,
    xm: &[f64],
    d: usize,
    precision: linalg::Precision,
) -> f64 {
    let mut arm = YtxPartial::new(d);
    arm.add_block_prec(sample, cm, xm, precision);
    let mut reference = YtxPartial::new(d);
    reference.add_block(sample, cm, xm);
    let abs = arm.xtx.max_abs_diff(&reference.xtx);
    let scale = reference.xtx.data().iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-300);
    abs / scale
}

/// Fits EM over `jobs` from a random or smart-guess (sPCA-SG) start.
/// `fit_sample` is the engine's own input pipeline; the smart-guess
/// warm-up fits its row sample through it. The initialization's virtual
/// time and intermediate data are charged to the run — the paper reports
/// sPCA-SG's (527 s) initialization delay as part of its timeline.
///
/// `error_sample` is the pre-drawn row sample the per-iteration accuracy
/// estimate uses; it is instrumentation and charged to neither engine.
pub(crate) fn fit_em(
    cluster: &SimCluster,
    jobs: &mut dyn EmJobs,
    y: &SparseMat,
    error_sample: &SparseMat,
    config: &SpcaConfig,
    fit_sample: impl FnOnce(&SparseMat, &SpcaConfig, &str) -> Result<SpcaRun>,
) -> Result<SpcaRun> {
    let before = cluster.metrics();
    if obs::enabled() {
        cluster.trace_begin("init", "init", Vec::new());
    }
    let (c, ss) = match &config.smart_guess {
        Some(sg) => init::smart_guess_init(y, config, sg, fit_sample)?,
        None => init::random_init(y.cols(), config.components, config.seed),
    };
    if obs::enabled() {
        let kind = if config.smart_guess.is_some() { "smart-guess" } else { "random" };
        cluster.trace_end("init", "init", vec![("kind", kind.into())]);
    }
    let after = cluster.metrics();
    let warm_elapsed = after.virtual_time_secs - before.virtual_time_secs;
    let mut em = Em { jobs, error_sample, config, c, ss, mean: Vec::new(), ss1: 0.0 };
    let mut run = run_passes(cluster, &mut em, error_sample, config)?;
    for it in &mut run.iterations {
        it.virtual_time_secs += warm_elapsed;
    }
    run.virtual_time_secs += warm_elapsed;
    run.intermediate_bytes += after.intermediate_bytes - before.intermediate_bytes;
    Ok(run)
}

/// EM's driver state between iterations: `C`, `ss`, and the one-time
/// job results (`Ym`, `ss1 = ‖Y − 1⊗Ym‖²_F`).
struct Em<'a> {
    jobs: &'a mut dyn EmJobs,
    error_sample: &'a SparseMat,
    config: &'a SpcaConfig,
    c: Mat,
    ss: f64,
    mean: Vec<f64>,
    ss1: f64,
}

impl PassAlgorithm for Em<'_> {
    const NAMES: Names = Names {
        run: "run_em",
        pass: "iteration",
        passes: "iterations",
        counters: "em",
        pass_counters: "em.iter",
        checkpoint_file: checkpoint::CHECKPOINT_FILE,
    };

    fn shape(&self) -> (usize, usize) {
        (self.jobs.num_rows(), self.jobs.num_cols())
    }

    fn width(&self) -> usize {
        self.config.components
    }

    fn passes(&self) -> usize {
        self.config.max_iters
    }

    fn run_args(&self) -> Vec<(&'static str, obs::ArgValue)> {
        vec![("precision", self.config.precision.label().into())]
    }

    fn prepare(&mut self) {
        // Lines 3–4: meanJob and FnormJob.
        self.mean = self.jobs.mean_job();
        self.ss1 = self.jobs.fnorm_job(&self.mean);
    }

    fn state(&self) -> (&Mat, f64) {
        (&self.c, self.ss)
    }

    fn restore(&mut self, c: Mat, ss: f64) {
        self.c = c;
        self.ss = ss;
    }

    fn step(&mut self, _iteration: usize, telemetry: bool) -> Result<Pass> {
        let (n, d_in) = self.shape();
        let (c, ss, mean) = (&self.c, self.ss, &self.mean);

        // Lines 6–8 (driver): M, CM = C·M⁻¹, Xm = Ym·CM.
        let (m_inv, cm, xm) = {
            let _s = obs::span("driver", "em driver update");
            let mut m = c.matmul_tn(c);
            m.add_diag(ss);
            let m_inv = Lu::new(&m)?.inverse();
            let cm = c.matmul(&m_inv);
            let xm = cm.vecmat(mean);
            (m_inv, cm, xm)
        };

        // Line 9 (distributed): consolidated XtX/YtX pass.
        let partial = self.jobs.ytx_job(&cm, &xm);
        debug_assert_eq!(partial.rows_seen as usize, n, "YtXJob must see every row");

        // Line 10 (driver): XtX += N·ss·M⁻¹.
        let (c_new, ss2) = {
            let _s = obs::span("driver", "em driver assemble");
            let mut xtx = partial.xtx.clone();
            xtx.add_scaled(n as f64 * ss, &m_inv);
            // Driver-side assembly of the dense YtX.
            let ytx = partial.finalize_ytx(mean);

            // Line 11: C = YtX / XtX.
            let c_new = solve_spd_right(&xtx, &ytx)?;

            // Line 12: ss2 = tr(XtX·C'C).
            let ctc = c_new.matmul_tn(&c_new);
            let ss2 = xtx.matmul(&ctc).trace();
            (c_new, ss2)
        };

        // Line 13 (distributed): ss3.
        let part = self.jobs.ss3_job(&cm, &xm, &c_new);
        let ss3 = ss3_finalize(part, &partial.sum_x, &c_new, mean);

        // Line 14: variance update.
        self.c = c_new;
        self.ss = ((self.ss1 + ss2 - 2.0 * ss3) / (n as f64) / (d_in as f64)).max(1e-12);

        // The paper's 1 − ss·N·D/‖Y−mean‖²_F objective.
        let objective = 1.0 - self.ss * (n as f64) * (d_in as f64) / self.ss1;
        // Reduced-precision arms: track how far this iteration's arm
        // drifts from the f64 reference on the (uncharged) error sample —
        // the divergence meter the precision ladder is judged by. One
        // small local block, never shipped.
        let precision = self.config.precision;
        let divergence = (precision != linalg::Precision::F64 && telemetry).then(|| {
            precision_divergence(self.error_sample, &cm, &xm, self.config.components, precision)
        });
        let model = PcaModel::new(self.c.clone(), self.mean.clone(), self.ss);
        Ok(Pass { model, objective, divergence })
    }
}
