//! Householder QR decomposition with thin Q.
//!
//! QR shows up in two of the analyzed PCA methods: SVD-Bidiag performs a QR
//! first (Section 2.2), and stochastic SVD orthonormalizes its random
//! projection with a QR — in the distributed case via TSQR
//! (see [`mod@super::tsqr`]), whose local steps call into this module.

use crate::dense::Mat;
use crate::vector;

/// Thin QR factorization: `A = Q R` with `Q` of shape m×k, `R` k×n,
/// k = min(m, n). `Q` has orthonormal columns and `R` is upper triangular.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Orthonormal factor (m × k).
    pub q: Mat,
    /// Upper-triangular factor (k × n).
    pub r: Mat,
}

/// Computes the thin QR of `a` by Householder reflections.
///
/// The reflections run on a column-major working copy, so every reflector
/// reads and updates contiguous memory. Each `vᵀx` dot is one sequential
/// accumulator in row order followed by `x -= (β·dot)·v` — the same
/// per-element operation order as a row-major column walk, so `Q` and `R`
/// are bit-for-bit those of the textbook loop (pinned by the oracle test
/// below). The working copy is reused as `Q`'s column-major buffer once
/// `R` has been read out of it.
pub fn qr_thin(a: &Mat) -> Qr {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    // Column-major working copy: column c is work[c*m..(c+1)*m].
    let mut work = vec![0.0; m * n];
    for i in 0..m {
        for (c, &x) in a.row(i).iter().enumerate() {
            work[c * m + i] = x;
        }
    }
    // Householder vectors (each scaled so the reflection is I - beta v vᵀ).
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut betas: Vec<f64> = Vec::with_capacity(k);

    for j in 0..k {
        // Column j below (and including) the diagonal.
        let mut v = work[j * m + j..(j + 1) * m].to_vec();
        let sigma = vector::norm2(&v);
        if sigma == 0.0 {
            vs.push(v);
            betas.push(0.0);
            continue;
        }
        let sign = if v[0] >= 0.0 { 1.0 } else { -1.0 };
        let alpha = -sign * sigma;
        v[0] -= alpha;
        let vtv = vector::norm2_sq(&v);
        let beta = if vtv > 0.0 { 2.0 / vtv } else { 0.0 };

        // Apply H = I - beta v vᵀ to the trailing block work[j.., j..].
        reflect_columns(&v, beta, &mut work, m, j, j..n);
        vs.push(v);
        betas.push(beta);
    }

    // R: upper-triangular top k×n of the transformed matrix.
    let r = Mat::from_fn(k, n, |i, c| if c >= i { work[c * m + i] } else { 0.0 });

    // Thin Q: apply reflections in reverse order to the first k identity
    // columns, in the (now free) column-major working buffer.
    let qbuf = &mut work[..m * k];
    qbuf.fill(0.0);
    for i in 0..k {
        qbuf[i * m + i] = 1.0;
    }
    for j in (0..k).rev() {
        if betas[j] != 0.0 {
            reflect_columns(&vs[j], betas[j], qbuf, m, j, 0..k);
        }
    }
    let q = Mat::from_fn(m, k, |i, c| qbuf[c * m + i]);

    Qr { q, r }
}

/// Applies `H = I - beta v vᵀ` to rows `row0..m` of each column in `cols`
/// of the column-major buffer `buf` (column stride `m`).
///
/// Columns go four at a time through one pass over `v` — four independent
/// sequential accumulators, so each column's dot keeps its own row-order
/// summation and the result is bit-identical to one column at a time.
fn reflect_columns(
    v: &[f64],
    beta: f64,
    buf: &mut [f64],
    m: usize,
    row0: usize,
    cols: std::ops::Range<usize>,
) {
    let len = v.len();
    debug_assert_eq!(row0 + len, m);
    let mut c = cols.start;
    while c + 4 <= cols.end {
        let (x0, rest) = buf[c * m..(c + 4) * m].split_at_mut(m);
        let (x1, rest) = rest.split_at_mut(m);
        let (x2, x3) = rest.split_at_mut(m);
        let (x0, x1, x2, x3) = (&mut x0[row0..], &mut x1[row0..], &mut x2[row0..], &mut x3[row0..]);
        let (x0, x1, x2, x3) = (&mut x0[..len], &mut x1[..len], &mut x2[..len], &mut x3[..len]);
        let (mut d0, mut d1, mut d2, mut d3) = (0.0, 0.0, 0.0, 0.0);
        for t in 0..len {
            let vi = v[t];
            d0 += vi * x0[t];
            d1 += vi * x1[t];
            d2 += vi * x2[t];
            d3 += vi * x3[t];
        }
        for (x, dot) in [(x0, d0), (x1, d1), (x2, d2), (x3, d3)] {
            subtract_scaled(x, beta * dot, v);
        }
        c += 4;
    }
    for c in c..cols.end {
        let x = &mut buf[c * m + row0..(c + 1) * m];
        let mut dot = 0.0;
        for (&vi, &xi) in v.iter().zip(x.iter()) {
            dot += vi * xi;
        }
        subtract_scaled(x, beta * dot, v);
    }
}

/// `x -= s·v`, skipped entirely when `s == 0` (so signed zeros in `x`
/// survive untouched).
#[inline]
fn subtract_scaled(x: &mut [f64], s: f64, v: &[f64]) {
    if s != 0.0 {
        for (xi, &vi) in x.iter_mut().zip(v) {
            *xi -= s * vi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn check_qr(a: &Mat, tol: f64) {
        let Qr { q, r } = qr_thin(a);
        let k = a.rows().min(a.cols());
        assert_eq!((q.rows(), q.cols()), (a.rows(), k));
        assert_eq!((r.rows(), r.cols()), (k, a.cols()));
        // Reconstruction.
        assert!(q.matmul(&r).approx_eq(a, tol), "QR does not reconstruct input");
        // Orthonormal columns.
        let qtq = q.matmul_tn(&q);
        assert!(qtq.approx_eq(&Mat::identity(k), tol), "Q columns not orthonormal");
        // R upper triangular.
        for i in 0..k {
            for j in 0..i.min(r.cols()) {
                assert!(r[(i, j)].abs() < tol, "R not upper triangular at ({i},{j})");
            }
        }
    }

    #[test]
    fn qr_of_tall_random_matrix() {
        let mut rng = Prng::seed_from_u64(11);
        check_qr(&rng.normal_mat(20, 5), 1e-10);
    }

    #[test]
    fn qr_of_square_matrix() {
        let mut rng = Prng::seed_from_u64(12);
        check_qr(&rng.normal_mat(6, 6), 1e-10);
    }

    #[test]
    fn qr_of_wide_matrix() {
        let mut rng = Prng::seed_from_u64(13);
        check_qr(&rng.normal_mat(4, 9), 1e-10);
    }

    #[test]
    fn qr_of_rank_deficient_matrix_still_reconstructs() {
        // Two identical columns.
        let a = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let Qr { q, r } = qr_thin(&a);
        assert!(q.matmul(&r).approx_eq(&a, 1e-12));
    }

    #[test]
    fn qr_with_zero_column() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[0.0, 2.0], &[0.0, 2.0]]);
        let Qr { q, r } = qr_thin(&a);
        assert!(q.matmul(&r).approx_eq(&a, 1e-12));
    }

    /// The textbook row-major Householder loop (column walks with a
    /// `cols`-element stride) that [`qr_thin`] must reproduce bit for bit.
    fn qr_thin_row_major(a: &Mat) -> Qr {
        let m = a.rows();
        let n = a.cols();
        let k = m.min(n);
        let mut work = a.clone();
        let mut vs: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut betas: Vec<f64> = Vec::with_capacity(k);
        for j in 0..k {
            let mut v: Vec<f64> = (j..m).map(|i| work[(i, j)]).collect();
            let sigma = vector::norm2(&v);
            if sigma == 0.0 {
                vs.push(v);
                betas.push(0.0);
                continue;
            }
            let sign = if v[0] >= 0.0 { 1.0 } else { -1.0 };
            let alpha = -sign * sigma;
            v[0] -= alpha;
            let vtv = vector::norm2_sq(&v);
            let beta = if vtv > 0.0 { 2.0 / vtv } else { 0.0 };
            for col in j..n {
                let mut dot = 0.0;
                for (t, vi) in v.iter().enumerate() {
                    dot += vi * work[(j + t, col)];
                }
                let s = beta * dot;
                if s != 0.0 {
                    for (t, vi) in v.iter().enumerate() {
                        work[(j + t, col)] -= s * vi;
                    }
                }
            }
            vs.push(v);
            betas.push(beta);
        }
        let mut r = Mat::zeros(k, n);
        for i in 0..k {
            for j in i..n {
                r[(i, j)] = work[(i, j)];
            }
        }
        let mut q = Mat::zeros(m, k);
        for i in 0..k {
            q[(i, i)] = 1.0;
        }
        for j in (0..k).rev() {
            let beta = betas[j];
            if beta == 0.0 {
                continue;
            }
            let v = &vs[j];
            for col in 0..k {
                let mut dot = 0.0;
                for (t, vi) in v.iter().enumerate() {
                    dot += vi * q[(j + t, col)];
                }
                let s = beta * dot;
                if s != 0.0 {
                    for (t, vi) in v.iter().enumerate() {
                        q[(j + t, col)] -= s * vi;
                    }
                }
            }
        }
        Qr { q, r }
    }

    fn assert_bits_eq(name: &str, what: &str, got: &Mat, want: &Mat) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{name}: {what} shape");
        for (idx, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{name}: {what}[{idx}] {g:e} vs {w:e}");
        }
    }

    #[test]
    fn column_major_qr_is_bit_identical_to_row_major_oracle() {
        let mut rng = Prng::seed_from_u64(0x9e11);
        let mut repeated = rng.normal_mat(40, 7);
        for r in 0..40 {
            repeated[(r, 5)] = repeated[(r, 1)];
            repeated[(r, 6)] = repeated[(r, 1)];
        }
        let mut zero_cols = rng.normal_mat(33, 9);
        for r in 0..33 {
            zero_cols[(r, 0)] = 0.0;
            zero_cols[(r, 4)] = 0.0;
        }
        let cases = [
            ("tall", rng.normal_mat(57, 13)),
            ("square", rng.normal_mat(16, 16)),
            ("wide", rng.normal_mat(6, 19)),
            ("single-column", rng.normal_mat(25, 1)),
            ("single-row", rng.normal_mat(1, 5)),
            ("zero-columns", Mat::zeros(12, 0)),
            ("zero-rows", Mat::zeros(0, 4)),
            ("zero-valued-columns", zero_cols),
            ("repeated-columns", repeated),
            ("all-zero", Mat::zeros(9, 5)),
            ("sketch-8000x60", rng.normal_mat(8000, 60)),
        ];
        for (name, a) in &cases {
            let got = qr_thin(a);
            let want = qr_thin_row_major(a);
            assert_bits_eq(name, "Q", &got.q, &want.q);
            assert_bits_eq(name, "R", &got.r, &want.r);
        }
    }

    #[test]
    fn qr_of_identity_is_identity() {
        let a = Mat::identity(4);
        let Qr { q, r } = qr_thin(&a);
        // Up to column signs, both factors are the identity; reconstruction
        // must be exact either way.
        assert!(q.matmul(&r).approx_eq(&a, 1e-14));
    }
}
