//! PPCA with missing values.
//!
//! Section 2.4 lists this as the first advantage of the probabilistic
//! formulation: "since PPCA uses expectation maximization, the projections
//! of principal components can be obtained even when some data values are
//! missing". This module implements that EM variant for dense matrices
//! with `NaN` marking missing entries, plus imputation through the fitted
//! model.
//!
//! Per-row E-step over the *observed* coordinates only:
//! `M_i = C_O'C_O + ss·I`, `x_i = M_i⁻¹ C_O'(y_O − μ_O)`,
//! `Σ E[x xᵀ] = ss·M_i⁻¹ + x_i x_iᵀ`; the M-step solves one small system
//! per output dimension over the rows that observe it.

use linalg::decomp::lu::Lu;
use linalg::{Mat, Prng};

use crate::error::SpcaError;
use crate::model::PcaModel;
use crate::Result;

/// Fits PPCA by EM on a dense matrix where `NaN` entries are missing.
pub fn fit_missing(y: &Mat, d: usize, iterations: usize, seed: u64) -> Result<PcaModel> {
    let n = y.rows();
    let d_in = y.cols();
    if n == 0 || d_in == 0 {
        return Err(SpcaError::EmptyInput);
    }
    if d > d_in.min(n) {
        return Err(SpcaError::TooManyComponents { requested: d, available: d_in.min(n) });
    }

    // Observed mask and per-column means over observed entries.
    let observed: Vec<Vec<usize>> = (0..n)
        .map(|r| y.row(r).iter().enumerate().filter(|(_, v)| !v.is_nan()).map(|(j, _)| j).collect())
        .collect();
    if observed.iter().any(|o| o.is_empty()) {
        // A fully-missing row carries no information; reject loudly rather
        // than silently skewing the fit.
        return Err(SpcaError::EmptyInput);
    }
    let mut mean = vec![0.0; d_in];
    let mut counts = vec![0usize; d_in];
    for r in 0..n {
        for &j in &observed[r] {
            mean[j] += y[(r, j)];
            counts[j] += 1;
        }
    }
    for (m, &c) in mean.iter_mut().zip(&counts) {
        if c > 0 {
            *m /= c as f64;
        }
    }

    let mut rng = Prng::seed_from_u64(seed);
    let mut c = rng.normal_mat(d_in, d);
    c.scale(0.1);
    let mut ss = 1.0;

    for _ in 0..iterations {
        // E-step: per-row posterior over observed coordinates.
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut sxx: Vec<Mat> = Vec::with_capacity(n); // E[x xᵀ] per row
        for r in 0..n {
            let obs = &observed[r];
            // M_i = C_O' C_O + ss·I (d × d).
            let mut m = Mat::zeros(d, d);
            for &j in obs {
                let cj = c.row(j);
                for a in 0..d {
                    let ca = cj[a];
                    if ca != 0.0 {
                        linalg::vector::axpy(ca, cj, m.row_mut(a));
                    }
                }
            }
            m.add_diag(ss);
            let m_inv = Lu::new(&m)?.inverse();
            // b = C_O'(y_O − μ_O).
            let mut b = vec![0.0; d];
            for &j in obs {
                let resid = y[(r, j)] - mean[j];
                linalg::vector::axpy(resid, c.row(j), &mut b);
            }
            let x = m_inv.matvec(&b);
            let mut exx = m_inv.clone();
            exx.scale(ss);
            exx.add_outer(1.0, &x, &x);
            xs.push(x);
            sxx.push(exx);
        }

        // M-step: per output dimension j, solve
        // C_j · (Σ_{i∋j} E[x xᵀ]) = Σ_{i∋j} (y_ij − μ_j)·x_i.
        let mut rows_by_dim: Vec<Vec<usize>> = vec![Vec::new(); d_in];
        for (r, obs) in observed.iter().enumerate() {
            for &j in obs {
                rows_by_dim[j].push(r);
            }
        }
        let mut c_new = Mat::zeros(d_in, d);
        for j in 0..d_in {
            if rows_by_dim[j].is_empty() {
                continue; // never observed: keep zero loading
            }
            let mut a = Mat::zeros(d, d);
            let mut rhs = vec![0.0; d];
            for &r in &rows_by_dim[j] {
                a.add_assign(&sxx[r]);
                linalg::vector::axpy(y[(r, j)] - mean[j], &xs[r], &mut rhs);
            }
            // Tiny ridge keeps the solve well-posed for rarely-observed dims.
            a.add_diag(1e-9);
            let sol = Lu::new(&a)?.solve(&rhs);
            c_new.row_mut(j).copy_from_slice(&sol);
        }

        // Noise update over observed entries.
        let mut num = 0.0;
        let mut total_obs = 0usize;
        for r in 0..n {
            for &j in &observed[r] {
                let pred = linalg::vector::dot(c_new.row(j), &xs[r]);
                let resid = y[(r, j)] - mean[j] - pred;
                // E[(y − μ − C x)²] = resid² + C_j Cov(x) C_j'.
                let cov_term = {
                    let mut s = 0.0;
                    let cj = c_new.row(j);
                    for a in 0..d {
                        s += cj[a]
                            * (linalg::vector::dot(sxx[r].row(a), cj)
                                - xs[r][a] * linalg::vector::dot(&xs[r], cj));
                    }
                    s
                };
                num += resid * resid + cov_term;
                total_obs += 1;
            }
        }
        c = c_new;
        ss = (num / total_obs as f64).max(1e-12);
    }

    Ok(PcaModel::new(c, mean, ss))
}

/// Fills the missing (`NaN`) entries of `y` with the model's
/// reconstruction, leaving observed entries untouched.
pub fn impute(y: &Mat, model: &PcaModel) -> Result<Mat> {
    assert_eq!(y.cols(), model.input_dim(), "impute: dimension mismatch");
    let d = model.output_dim();
    let c = model.components();
    let mean = model.mean();
    let mut out = y.clone();
    for r in 0..y.rows() {
        let obs: Vec<usize> =
            (0..y.cols()).filter(|&j| !y[(r, j)].is_nan()).collect();
        // Posterior mean latent from observed coordinates.
        let mut m = Mat::zeros(d, d);
        for &j in &obs {
            let cj = c.row(j);
            for a in 0..d {
                if cj[a] != 0.0 {
                    linalg::vector::axpy(cj[a], cj, m.row_mut(a));
                }
            }
        }
        m.add_diag(model.noise_variance().max(1e-12));
        let m_inv = Lu::new(&m).map_err(SpcaError::from)?.inverse();
        let mut b = vec![0.0; d];
        for &j in &obs {
            linalg::vector::axpy(y[(r, j)] - mean[j], c.row(j), &mut b);
        }
        let x = m_inv.matvec(&b);
        for j in 0..y.cols() {
            if y[(r, j)].is_nan() {
                out[(r, j)] = linalg::vector::dot(c.row(j), &x) + mean[j];
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::decomp::qr_thin;

    /// Planted low-rank data with a fraction of entries knocked out.
    fn masked_data(
        n: usize,
        d_in: usize,
        rank: usize,
        missing_frac: f64,
        seed: u64,
    ) -> (Mat, Mat) {
        let mut rng = Prng::seed_from_u64(seed);
        let basis = qr_thin(&rng.normal_mat(d_in, rank)).q;
        let latent = rng.normal_mat(n, rank);
        let mut full = latent.matmul(&basis.transpose());
        full.scale(3.0);
        let noise = rng.normal_mat(n, d_in);
        full.add_scaled(0.05, &noise);
        let mut masked = full.clone();
        for r in 0..n {
            // Keep one random coordinate always observed so no row becomes
            // fully missing (a fully-missing row is rejected by the fit).
            let keep = rng.index(d_in);
            for j in 0..d_in {
                if j != keep && rng.uniform() < missing_frac {
                    masked[(r, j)] = f64::NAN;
                }
            }
        }
        (full, masked)
    }

    #[test]
    fn fits_with_no_missing_values_like_plain_ppca() {
        let (full, _) = masked_data(150, 8, 2, 0.0, 1);
        let model = fit_missing(&full, 2, 25, 7).unwrap();
        // Reconstruction through the model should be good.
        let x = model.transform_dense(&full).unwrap();
        let rec = model.reconstruct(&x).unwrap();
        let rel = linalg::norms::diff_norm1(&full, &rec) / full.norm1();
        assert!(rel < 0.15, "relative error {rel}");
    }

    #[test]
    fn imputation_recovers_held_out_entries() {
        let (full, masked) = masked_data(200, 10, 2, 0.2, 2);
        let model = fit_missing(&masked, 2, 30, 3).unwrap();
        let imputed = impute(&masked, &model).unwrap();
        // Measure error only on the held-out entries.
        let mut err = 0.0;
        let mut base = 0.0;
        let mut count = 0;
        for r in 0..full.rows() {
            for j in 0..full.cols() {
                if masked[(r, j)].is_nan() {
                    err += (imputed[(r, j)] - full[(r, j)]).abs();
                    base += full[(r, j)].abs();
                    count += 1;
                }
            }
        }
        assert!(count > 0);
        let rel = err / base;
        assert!(rel < 0.30, "imputation relative error {rel}");
        // Observed entries must be untouched.
        assert_eq!(imputed[(0, 0)].is_nan(), false);
        for r in 0..full.rows() {
            for j in 0..full.cols() {
                if !masked[(r, j)].is_nan() {
                    assert_eq!(imputed[(r, j)], masked[(r, j)]);
                }
            }
        }
    }

    #[test]
    fn rejects_fully_missing_row() {
        let mut y = Mat::zeros(3, 4);
        for j in 0..4 {
            y[(1, j)] = f64::NAN;
        }
        assert!(matches!(fit_missing(&y, 1, 5, 0), Err(SpcaError::EmptyInput)));
    }

    #[test]
    fn more_missingness_degrades_gracefully() {
        let (full, light) = masked_data(150, 8, 2, 0.1, 4);
        let (_, heavy) = masked_data(150, 8, 2, 0.5, 4);
        let err = |masked: &Mat| {
            let model = fit_missing(masked, 2, 20, 5).unwrap();
            let imp = impute(masked, &model).unwrap();
            let mut e = 0.0;
            for r in 0..full.rows() {
                for j in 0..full.cols() {
                    if masked[(r, j)].is_nan() {
                        e += (imp[(r, j)] - full[(r, j)]).abs();
                    }
                }
            }
            e / full.norm1()
        };
        assert!(err(&light) < err(&heavy), "lighter masking should impute better");
    }
}
