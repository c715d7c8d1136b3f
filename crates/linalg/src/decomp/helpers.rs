//! Small-matrix helpers for randomized subspace iteration.
//!
//! Randomized PCA (Halko et al., arXiv:1007.5510) needs three small dense
//! operations on the driver between distributed passes: re-orthonormalize
//! the D×K sketch basis, recover the top-d triplets of the sketch (the
//! randomized driver takes them from the K×K `R` of its QR), and measure
//! how far two recovered subspaces are apart. These are
//! thin, *validated* wrappers over [`qr_thin`] / [`svd_jacobi`] — all the
//! shape edge cases (single column, rank-deficient, wide) are pinned by the
//! property suite in `crates/linalg/tests/decomp_helpers.rs`.

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::Result;

use super::qr::qr_thin;
use super::svd::{svd_jacobi, Svd};

/// Returns an orthonormal basis for the column space of `a`: an
/// m × min(m, n) matrix with columns orthonormal to machine precision.
///
/// Householder QR guarantees orthonormal `Q` even when `a` is rank
/// deficient (zero columns, repeated columns) — the basis then spans more
/// than the column space, which is exactly what subspace iteration wants:
/// the pass structure stays full width and dead directions get repopulated
/// by the next multiply. For wide inputs (n > m) the basis is m × m.
pub fn orthonormal_columns(a: &Mat) -> Mat {
    qr_thin(a).q
}

/// Top-`k` singular triplets of a small dense matrix, descending.
///
/// Validates the rank request up front (`k` must not exceed `min(m, n)`)
/// instead of silently truncating like [`Svd::truncate`], so callers that
/// derive `k` from user configuration get a typed error rather than a
/// shape surprise downstream.
pub fn top_singular_triplets(a: &Mat, k: usize) -> Result<Svd> {
    let available = a.rows().min(a.cols());
    if k > available {
        return Err(LinalgError::RankTooLarge { requested: k, available });
    }
    Ok(svd_jacobi(a)?.truncate(k))
}

/// Smallest principal-angle cosine between the column spaces of `a` and
/// `b`: `σ_min(QₐᵀQᵦ)` after orthonormalizing both. 1.0 means the spaces
/// coincide, 0.0 means some direction of one is orthogonal to all of the
/// other. The conformance suite uses this to compare a randomized subspace
/// against exact PCA without being sensitive to column order or sign.
pub fn subspace_overlap(a: &Mat, b: &Mat) -> Result<f64> {
    let qa = orthonormal_columns(a);
    let qb = orthonormal_columns(b);
    let s = svd_jacobi(&qa.matmul_tn(&qb))?.s;
    // Clamp: Jacobi can overshoot 1.0 by a few ulps on coinciding spaces.
    Ok(s.last().copied().unwrap_or(1.0).min(1.0))
}
