//! Initialization of `C` and `ss`: random (Algorithm 4, lines 1–2) and
//! smart-guess (sPCA-SG, Section 5.2).

use linalg::{Mat, Prng, SparseMat};

use crate::config::{SmartGuess, SpcaConfig};
use crate::model::SpcaRun;
use crate::Result;

/// Random initialization — the paper's `C = normrnd(D, d)`,
/// `ss = normrnd(1,1)` (made positive: a non-positive variance is
/// meaningless and the reference implementation clamps it too).
pub fn random_init(d_in: usize, d: usize, seed: u64) -> (Mat, f64) {
    let mut rng = Prng::seed_from_u64(seed);
    let c = rng.normal_mat(d_in, d);
    let ss = rng.normal().powi(2) + 0.5;
    (c, ss)
}

/// Smart-guess initialization: fit on a small random row sample and return
/// the resulting `(C, ss)` as the starting point for the full run.
///
/// `fit` is the engine's input pipeline (`fit_with_input`): it fits the
/// sample under the warm-up config and the given DFS input name, so the
/// warm-up runs on the same engine as the full fit.
///
/// The paper notes this is only possible because sPCA's state is the small
/// D×d matrix `C` — independent of N — whereas Mahout-PCA's random
/// initialization has N rows and cannot be transplanted from a sample.
pub(crate) fn smart_guess_init(
    y: &SparseMat,
    config: &SpcaConfig,
    sg: &SmartGuess,
    fit: impl FnOnce(&SparseMat, &SpcaConfig, &str) -> Result<SpcaRun>,
) -> Result<(Mat, f64)> {
    let want = ((y.rows() as f64) * sg.sample_fraction).ceil() as usize;
    // Enough rows for the EM to see a d-dimensional subspace.
    let k = want.max(2 * config.components + 2).min(y.rows());
    let mut rng = Prng::seed_from_u64(config.seed ^ 0x5650);
    let idx = rng.sample_indices(y.rows(), k);
    let sample = y.select_rows(&idx);

    let warm = config.warm_up(sg);
    let run = fit(&sample, &warm, &crate::scoped_name(&warm, "input/Y.sample"))?;
    Ok((run.model.components().clone(), run.model.noise_variance()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_init_shapes_and_positivity() {
        let (c, ss) = random_init(20, 4, 1);
        assert_eq!((c.rows(), c.cols()), (20, 4));
        assert!(ss > 0.0);
    }

    #[test]
    fn random_init_is_seeded() {
        let (c1, s1) = random_init(5, 2, 9);
        let (c2, s2) = random_init(5, 2, 9);
        assert!(c1.approx_eq(&c2, 0.0));
        assert_eq!(s1, s2);
        let (c3, _) = random_init(5, 2, 10);
        assert!(!c1.approx_eq(&c3, 1e-9));
    }
}
