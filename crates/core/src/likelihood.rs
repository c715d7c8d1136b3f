//! The PPCA data log-likelihood (Section 2.4 of the paper).
//!
//! `L({y_r}) = −N/2 · (D·ln 2π + ln|Σ| + tr(Σ⁻¹·S))` with
//! `Σ = ss·I + C·Cᵀ` and `S` the sample covariance of the centered data.
//! EM maximizes exactly this quantity, and its monotone increase is *the*
//! invariant that distinguishes a correct EM implementation from a
//! subtly broken one — the tests assert it on every iterate.
//!
//! Everything is computed through d×d quantities only (Woodbury):
//!
//! * `ln|Σ| = (D−d)·ln ss + ln|M|`, `M = CᵀC + ss·I`;
//! * `tr(Σ⁻¹S) = (tr S − tr(M⁻¹·CᵀSC))/ss`, with `tr S = ‖Yc‖²_F/N` from
//!   the Frobenius job and `CᵀSC = (Yc·C)ᵀ(Yc·C)/N` from one sparse pass —
//!   both fully mean-propagated, so the evaluation never densifies `Y`.

use linalg::decomp::lu::Lu;
use linalg::{Mat, SparseMat};

use crate::frobenius;
use crate::model::PcaModel;
use crate::Result;

/// Log-likelihood of the data under the model (natural log).
pub fn log_likelihood(y: &SparseMat, model: &PcaModel) -> Result<f64> {
    model.check_input_width(y.cols())?;
    let n = y.rows();
    let d_in = y.cols();
    let d = model.output_dim();
    assert!(n > 0, "need at least one row");
    let ss = model.noise_variance().max(1e-300);
    let c = model.components();
    let mean = model.mean();

    // M = CᵀC + ss·I and its determinant/inverse (d×d only).
    let mut m = c.matmul_tn(c);
    m.add_diag(ss);
    let lu = Lu::new(&m)?;
    let ln_det_m = lu.det().abs().max(f64::MIN_POSITIVE).ln();
    let m_inv = lu.inverse();

    // tr S = ‖Yc‖²_F / N via Algorithm 3 (no densification).
    let tr_s = frobenius::centered_sq(y, mean) / n as f64;

    // A = Yc·C computed with mean propagation: A_i = y_i·C − Ym·C.
    let shift = c.vecmat(mean); // d
    let mut g = Mat::zeros(d, d); // AᵀA
    for r in 0..y.rows() {
        let mut a = y.row(r).mul_mat(c);
        linalg::vector::axpy(-1.0, &shift, &mut a);
        g.add_outer(1.0, &a, &a);
    }
    g.scale(1.0 / n as f64); // CᵀSC

    let tr_sigma_inv_s = (tr_s - m_inv.matmul(&g).trace()) / ss;
    let ln_det_sigma = (d_in - d) as f64 * ss.ln() + ln_det_m;

    let two_pi = 2.0 * std::f64::consts::PI;
    Ok(-0.5 * n as f64 * (d_in as f64 * two_pi.ln() + ln_det_sigma + tr_sigma_inv_s))
}

/// Per-row average log-likelihood — scale-independent convenience.
pub fn avg_log_likelihood(y: &SparseMat, model: &PcaModel) -> Result<f64> {
    Ok(log_likelihood(y, model)? / y.rows().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppca;
    use linalg::Prng;

    fn dense_oracle(y: &SparseMat, model: &PcaModel) -> f64 {
        // Direct evaluation with explicit D×D matrices.
        let n = y.rows();
        let d_in = y.cols();
        let mut yc = y.to_dense();
        yc.sub_row_vector(model.mean());
        let mut s = yc.matmul_tn(&yc);
        s.scale(1.0 / n as f64);
        // Σ = ss·I + CCᵀ.
        let mut sigma = model.components().matmul_nt(model.components());
        sigma.add_diag(model.noise_variance());
        let lu = Lu::new(&sigma).unwrap();
        let ln_det = lu.det().abs().ln();
        let sigma_inv = lu.inverse();
        let tr = sigma_inv.matmul(&s).trace();
        let two_pi = 2.0 * std::f64::consts::PI;
        -0.5 * n as f64 * (d_in as f64 * two_pi.ln() + ln_det + tr)
    }

    fn test_data(seed: u64) -> SparseMat {
        let mut rng = Prng::seed_from_u64(seed);
        let spec = datasets::LowRankSpec {
            rows: 120,
            cols: 25,
            topics: 3,
            words_per_row: 6.0,
            topic_affinity: 0.85,
            zipf_exponent: 1.0,
        };
        datasets::sparse_lowrank(&spec, &mut rng)
    }

    #[test]
    fn woodbury_matches_dense_oracle() {
        let y = test_data(1);
        let (model, _) = ppca::fit_dense(&y.to_dense(), 3, 5, 7).unwrap();
        let fast = log_likelihood(&y, &model).unwrap();
        let slow = dense_oracle(&y, &model);
        assert!(
            (fast - slow).abs() < 1e-6 * (1.0 + slow.abs()),
            "{fast} vs {slow}"
        );
    }

    #[test]
    fn em_increases_likelihood_monotonically() {
        // The EM guarantee, asserted on every iterate of Algorithm 1.
        let y = test_data(2);
        let dense = y.to_dense();
        let (_, trace) = ppca::fit_dense(&dense, 3, 12, 11).unwrap();
        let mean = dense.col_means();
        let mut prev = f64::NEG_INFINITY;
        for (c_iter, ss_iter) in trace.c_history.iter().zip(&trace.ss_history) {
            let model = PcaModel::new(c_iter.clone(), mean.clone(), *ss_iter);
            let ll = log_likelihood(&y, &model).unwrap();
            assert!(
                ll >= prev - 1e-6 * prev.abs().max(1.0),
                "likelihood decreased: {prev} → {ll}"
            );
            prev = ll;
        }
    }

    #[test]
    fn distributed_fit_increases_likelihood_too() {
        let y = test_data(3);
        let cluster = dcluster::SimCluster::new(dcluster::ClusterConfig::paper_cluster());
        let run = crate::Spca::new(
            crate::SpcaConfig::new(3).with_max_iters(6).with_rel_tolerance(None),
        )
        .fit_spark(&cluster, &y)
        .unwrap();
        // Final model beats the random-init model decisively.
        let (c0, ss0) = crate::init::random_init(y.cols(), 3, run.model.components().cols() as u64);
        let init_model = PcaModel::new(c0, run.model.mean().to_vec(), ss0);
        let ll_init = log_likelihood(&y, &init_model).unwrap();
        let ll_fit = log_likelihood(&y, &run.model).unwrap();
        assert!(ll_fit > ll_init, "fit {ll_fit} must beat init {ll_init}");
    }

    #[test]
    fn better_model_scores_higher() {
        let y = test_data(4);
        let dense = y.to_dense();
        let (short, _) = ppca::fit_dense(&dense, 3, 1, 5).unwrap();
        let (long, _) = ppca::fit_dense(&dense, 3, 15, 5).unwrap();
        let ll_short = log_likelihood(&y, &short).unwrap();
        let ll_long = log_likelihood(&y, &long).unwrap();
        assert!(ll_long >= ll_short);
    }

    #[test]
    fn avg_is_total_over_n() {
        let y = test_data(5);
        let (model, _) = ppca::fit_dense(&y.to_dense(), 2, 4, 3).unwrap();
        let total = log_likelihood(&y, &model).unwrap();
        let avg = avg_log_likelihood(&y, &model).unwrap();
        assert!((avg * y.rows() as f64 - total).abs() < 1e-9 * total.abs());
    }
}
