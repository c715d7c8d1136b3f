//! Randomized subspace iteration as a competing algorithm family.
//!
//! Implements randomized PCA (Halko et al., arXiv:1007.5510; distributed
//! formulation after Li/Kluger/Tygert, arXiv:1612.08709) on both simulated
//! engines, selected via `SpcaConfig::with_algorithm(Algorithm::Randomized)`.
//! Where EM runs *many thin iterations* (two small accumulator jobs per
//! iteration), randomized iteration runs *few fat passes*: each pass
//! broadcasts the D×K sketch basis `W`, streams the sparse input once, and
//! ships one D×K covariance-sketch partial per partition back to the
//! driver.
//!
//! Per pass, partition `p` computes with the batched kernels
//!
//! ```text
//! P_p    = Y_p·W − 1⊗(Wᵀμ)          (its slab of the centered range sketch)
//! Zraw_p = Y_pᵀ·P_p                  (spmm_tn)
//! t_p    = 1ᵀP_p                     (column sums of the slab)
//! ```
//!
//! and the driver folds the partials **sequentially in partition order**:
//!
//! ```text
//! Z = Σ_p Zraw_p − μ⊗(Σ_p t_p)  =  YcᵀYc·W        (Yc = Y − 1⊗μ)
//! ```
//!
//! so the N×K sketch `Q` is never materialized or shuffled — the paper's
//! minimized-intermediate-data discipline carried over to the challenger.
//! The driver then factors the small D×K `Z = Q·R` once (`qr_thin`,
//! O(D·K²), stage `rpca/orthonormalize`): `Q` is the next basis. It
//! recovers the current top-d model from the K×K `R` (stage
//! `rpca/recover`): with `R = U_R·S·V_Rᵀ`, the components are `Q·U_R` and
//! `S` holds `Z`'s own singular values, so Jacobi sweeps run over K×K
//! instead of D×K. This R-SVD is preferred over eigSVD (an eigensolve
//! of `ZᵀZ`): it does not square the sketch's condition number, and
//! Householder `Q` stays orthonormal on a rank-deficient `Z`, so there
//! is no fallback path. Every pass, the last one included, charges its
//! QR to `rpca/orthonormalize`. The loop repeats for `q` power passes.
//!
//! The arm is one `PassAlgorithm`: this module supplies the one-time
//! jobs and the per-pass step, and the shared `crate::driver::run_passes`
//! loop owns resume, checkpoints, the stop rule, traces and the ledger —
//! the same loop EM runs in. The engines' input pipelines are EM's too
//! (`spark::fit_with_input`, `mr::fit_with_input` dispatch on the
//! algorithm after the shared setup), so fault plans and multi-tenant
//! scoping compose unchanged.
//!
//! **Bitwise determinism.** EM's two engines agree only to round-off
//! (their reduction trees differ); the randomized arm is held to a harder
//! bar — the *same* model hash across engines, worker counts, timing
//! models and fault plans. Three design rules buy that: both engines split
//! rows with the same `split_rows` layout, every distributed job is one
//! [`RpcaJobs::per_partition`] call running the same kernel per
//! partition, and every cross-partition fold happens on the driver in
//! partition index order (the MapReduce path keys partials by partition
//! index, so its sorted job output *is* partition order; the Spark path
//! `collect`s, which preserves partition order). The engines still differ
//! in what they charge — Spark persists the RDD and pays per-partition
//! collect flows, MapReduce pays job init, spills and shuffle — which is
//! exactly the comparison the three-way bench measures.

use dcluster::SimCluster;
use linalg::decomp::{qr_thin, top_singular_triplets};
use linalg::wire::Wire;
use linalg::{Mat, SparseMat};

use crate::checkpoint;
use crate::config::SpcaConfig;
use crate::driver::{run_passes, JobInput, Names, Pass, PassAlgorithm};
use crate::error::SpcaError;
use crate::frobenius;
use crate::model::{PcaModel, SpcaRun};
use crate::Result;

/// One partition's pass contribution: (`Zraw_p` = Y_pᵀP_p, `t_p` = 1ᵀP_p).
/// Travels as a plain tuple — `Mat` and `Vec<f64>` are `Wire`, so the
/// partial moves through the versioned codec like every other intermediate.
pub type PassPartial = (Mat, Vec<f64>);

/// The distributed surface of the randomized driver, one impl per engine:
/// a single ordered per-partition primitive. All folding happens on the
/// driver so both engines reduce identically.
pub trait RpcaJobs: JobInput {
    /// Runs `f` on every partition's CSR block as the job `label` and
    /// returns the partials in partition index order. `wide` marks the
    /// per-pass job whose partials are D×K: MapReduce spreads its
    /// identity reduce over one reducer per node instead of one.
    fn per_partition<T>(
        &mut self,
        label: &str,
        wide: bool,
        f: &(dyn Fn(&SparseMat) -> T + Sync),
    ) -> Vec<T>
    where
        T: Clone + Send + Sync + Wire;
}

/// The per-partition pass kernel, shared verbatim by both engines so their
/// partials are bit-identical. `block` is the partition's CSR slab.
pub(crate) fn pass_partial(block: &SparseMat, w: &Mat, shift: &[f64]) -> PassPartial {
    // P = Y_p·W − 1⊗shift: the centered range-sketch slab, via the batched
    // sparse-dense kernel (row layout is deterministic on any pool size).
    let mut p = block.mul_dense(w);
    for r in 0..p.rows() {
        linalg::vector::axpy(-1.0, shift, p.row_mut(r));
    }
    let mut colsum = vec![0.0; w.cols()];
    for r in 0..p.rows() {
        linalg::vector::axpy(1.0, p.row(r), &mut colsum);
    }
    let zraw = linalg::kernels::spmm_tn(block, &p);
    (zraw, colsum)
}

/// Runs the randomized driver loop over the given engine jobs.
///
/// `error_sample` is the pre-drawn row sample for the per-pass accuracy
/// estimate — instrumentation, charged to neither engine (same contract as
/// EM's).
pub fn run_rpca<J: RpcaJobs>(
    cluster: &SimCluster,
    jobs: &mut J,
    error_sample: &SparseMat,
    config: &SpcaConfig,
) -> Result<SpcaRun> {
    let d_in = jobs.num_cols();
    let k = config.components + config.rpca_oversample;
    // Seeded Gaussian test matrix Ω (D×K): the only randomness in the
    // whole arm, derived from the config seed alone.
    let w = linalg::Prng::seed_from_u64(config.seed ^ 0x03e6a).normal_mat(d_in, k);
    let mut alg =
        Randomized { cluster, jobs, config, k, w, ss: 0.0, mean: Vec::new(), fnorm_c: 0.0 };
    run_passes(cluster, &mut alg, error_sample, config)
}

/// The randomized driver's state between passes: the sketch basis `W`
/// (checkpointed in `EmCheckpoint`'s `c` slot under its own DFS name),
/// the last pass's noise estimate, and the one-time job results.
struct Randomized<'a, J> {
    cluster: &'a SimCluster,
    jobs: &'a mut J,
    config: &'a SpcaConfig,
    k: usize,
    w: Mat,
    ss: f64,
    mean: Vec<f64>,
    fnorm_c: f64,
}

impl<J: RpcaJobs> PassAlgorithm for Randomized<'_, J> {
    const NAMES: Names = Names {
        run: "run_rpca",
        pass: "pass",
        passes: "passes",
        counters: "rpca",
        pass_counters: "rpca.pass",
        checkpoint_file: checkpoint::RPCA_CHECKPOINT_FILE,
    };

    fn shape(&self) -> (usize, usize) {
        (self.jobs.num_rows(), self.jobs.num_cols())
    }

    fn width(&self) -> usize {
        self.k
    }

    /// The range sketch plus `q` power iterations.
    fn passes(&self) -> usize {
        self.config.rpca_power_iters + 1
    }

    fn run_args(&self) -> Vec<(&'static str, obs::ArgValue)> {
        vec![("K", (self.k as u64).into()), ("passes", (self.passes() as u64).into())]
    }

    fn prepare(&mut self) {
        // Column sums and the centered squared Frobenius norm, folded in
        // partition order.
        let (n, d_in) = self.shape();
        let mut mean = vec![0.0; d_in];
        for part in self.jobs.per_partition("rpca/colsumJob", false, &|b| b.col_sums()) {
            linalg::vector::axpy(1.0, &part, &mut mean);
        }
        linalg::vector::scale(1.0 / n as f64, &mut mean);
        let mean_norm_sq = linalg::vector::norm2_sq(&mean);
        let fnorm = |b: &SparseMat| frobenius::centered_sq_block(b, &mean, mean_norm_sq);
        self.fnorm_c = self.jobs.per_partition("rpca/FnormJob", false, &fnorm).into_iter().sum();
        self.mean = mean;
    }

    fn state(&self) -> (&Mat, f64) {
        (&self.w, self.ss)
    }

    fn restore(&mut self, w: Mat, _ss: f64) {
        self.w = w;
    }

    fn step(&mut self, pass: usize, _telemetry: bool) -> Result<Pass> {
        let (n, d_in) = self.shape();
        let (d, k, cluster) = (self.config.components, self.k, self.cluster);
        let (w, mean) = (&self.w, &self.mean);

        // Driver: shift = Wᵀμ, so tasks center their sketch slab without
        // ever touching a dense D-vector per row.
        let shift = w.vecmat(mean);

        // The fat pass (distributed): broadcast the pass's basis W (D×K)
        // and shift vector to every node — priced like every other
        // broadcast — then fold the per-partition covariance-sketch
        // partials sequentially in partition order.
        cluster.charge_broadcast(cluster.wire_size(w) + cluster.sizing().f64_payload(shift.len()));
        let kernel = |block: &SparseMat| pass_partial(block, w, &shift);
        let partials = self.jobs.per_partition(&format!("rpca/pass{pass}"), true, &kernel);
        let (mut z, mut tsum) = (Mat::zeros(d_in, k), vec![0.0; k]);
        {
            let _s = obs::span("driver", "rpca driver fold");
            // By value: each D×K partial is freed as soon as it is folded.
            for (zraw, t) in partials {
                z.add_assign(&zraw);
                linalg::vector::axpy(1.0, &t, &mut tsum);
            }
            // Mean correction: Z = YᵀP − μ⊗(1ᵀP) = YcᵀP.
            for j in 0..d_in {
                linalg::vector::axpy(-mean[j], &tsum, z.row_mut(j));
            }
        }

        // Driver: one Householder QR of the sketch, Z = Q·R. `Q` is the
        // next basis (the power-iteration step — cheap at D×K, no
        // distributed TSQR needed because Z already lives on the driver).
        let qr = cluster.run_driver("rpca/orthonormalize", || qr_thin(&z));
        drop(z); // Q and R carry everything later steps need from Z.

        // Driver: recover the current top-d model from the K×K factor:
        // R = U_R·S·V_Rᵀ gives Z = (Q·U_R)·S·V_Rᵀ, so the components are
        // Q·U_R and the singular values are Z's own. Z = YcᵀYc·W has
        // singular values ≤ σᵢ²(Yc), so the captured energy Σ_{i<d} sᵢ(Z)
        // never exceeds ‖Yc‖²_F and the residual noise estimate stays
        // non-negative by construction.
        let fnorm_c = self.fnorm_c;
        let (c, ss, captured) = cluster.run_driver("rpca/recover", || -> Result<_> {
            let svd = top_singular_triplets(&qr.r, d).map_err(SpcaError::Numeric)?;
            let captured: f64 = svd.s.iter().sum();
            let residual = (fnorm_c - captured).max(0.0);
            let free_dims = (n * (d_in - d)).max(1) as f64;
            let ss = (residual / free_dims).max(1e-12);
            Ok((qr.q.matmul(&svd.u), ss, captured))
        })?;
        self.w = qr.q;
        self.ss = ss;

        // Fraction of centered energy the top-d sketch captures — the
        // randomized analogue of EM's objective. No reduced-precision arms
        // on this path: the precision knob is inert, as for f64 EM.
        let objective = captured / fnorm_c.max(f64::MIN_POSITIVE);
        Ok(Pass { model: PcaModel::new(c, self.mean.clone(), ss), objective, divergence: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use dcluster::ClusterConfig;

    fn lowrank() -> SparseMat {
        let mut rng = linalg::Prng::seed_from_u64(7);
        let spec = datasets::LowRankSpec::small_test();
        datasets::sparse_lowrank(&spec, &mut rng)
    }

    fn config() -> SpcaConfig {
        SpcaConfig::new(3)
            .with_algorithm(Algorithm::Randomized)
            .with_rpca_oversample(4)
            .with_rpca_power_iters(2)
            .with_rel_tolerance(None)
    }

    #[test]
    fn randomized_fit_runs_and_improves() {
        let y = lowrank();
        let cluster = SimCluster::new(ClusterConfig::paper_cluster());
        let run = crate::spark::fit(&cluster, &y, &config()).unwrap();
        assert_eq!(run.model.output_dim(), 3);
        assert_eq!(run.iterations.len(), 3, "q + 1 passes");
        assert!(run.final_error() <= run.iterations[0].error * 1.0 + 1e-12);
        assert!(run.model.noise_variance() > 0.0);
        assert!(run.virtual_time_secs > 0.0);
        assert!(run.intermediate_bytes > 0);
    }

    #[test]
    fn engines_agree_bitwise() {
        let y = lowrank();
        let c1 = SimCluster::new(ClusterConfig::paper_cluster());
        let spark = crate::spark::fit(&c1, &y, &config()).unwrap();
        let c2 = SimCluster::new(ClusterConfig::paper_cluster());
        let mr = crate::mr::fit(&c2, &y, &config()).unwrap();
        assert_eq!(
            spark.model.content_hash(),
            mr.model.content_hash(),
            "randomized models must be bitwise identical across engines"
        );
        // MapReduce pays job overheads the Spark engine does not.
        assert!(mr.virtual_time_secs > spark.virtual_time_secs);
    }

    #[test]
    fn pass_partial_matches_direct_computation() {
        let y = lowrank();
        let mut rng = linalg::Prng::seed_from_u64(11);
        let w = rng.normal_mat(y.cols(), 5);
        let mean = y.col_means();
        let shift = w.vecmat(&mean);
        let (zraw, colsum) = pass_partial(&y, &w, &shift);
        // Reference: dense Yc, P = Yc·W, Z = YᵀP, t = 1ᵀP.
        let mut yc = y.to_dense();
        yc.sub_row_vector(&mean);
        let p_ref = yc.matmul(&w);
        for j in 0..w.cols() {
            let t: f64 = (0..y.rows()).map(|r| p_ref[(r, j)]).sum();
            assert!((colsum[j] - t).abs() <= 1e-9 * (1.0 + t.abs()));
        }
        // Driver-side fold of a single partition reproduces YcᵀYc·W.
        let mut z = zraw;
        for j in 0..y.cols() {
            linalg::vector::axpy(-mean[j], &colsum, z.row_mut(j));
        }
        let z_ref = yc.matmul_tn(&p_ref);
        assert!(z.approx_eq(&z_ref, 1e-8), "max diff {:.3e}", z.max_abs_diff(&z_ref));
    }
}
