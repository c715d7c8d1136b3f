//! Property suite for the randomized-subspace-iteration helpers
//! (`decomp::helpers`): orthonormality to 1e-12, reconstruction, the
//! degenerate shapes the rpca driver can feed them (single column,
//! rank-deficient sketches, more columns than rows), and the driver's
//! model recovery through the sketch's QR factor `R`.

use linalg::decomp::{orthonormal_columns, qr_thin, subspace_overlap, top_singular_triplets};
use linalg::{LinalgError, Mat, Prng};

const ORTHO_TOL: f64 = 1e-12;

/// max |QᵀQ - I| over all entries.
fn orthonormality_defect(q: &Mat) -> f64 {
    let gram = q.matmul_tn(q);
    let mut worst = 0.0f64;
    for i in 0..gram.rows() {
        for j in 0..gram.cols() {
            let want = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((gram[(i, j)] - want).abs());
        }
    }
    worst
}

#[test]
fn orthonormal_columns_random_shapes() {
    let mut rng = Prng::seed_from_u64(0x0071);
    for &(m, n) in &[(1usize, 1usize), (5, 1), (40, 7), (64, 64), (200, 12)] {
        let a = rng.normal_mat(m, n);
        let q = orthonormal_columns(&a);
        assert_eq!(q.rows(), m);
        assert_eq!(q.cols(), m.min(n));
        let defect = orthonormality_defect(&q);
        assert!(defect <= ORTHO_TOL, "{m}x{n}: QᵀQ defect {defect:.3e}");
        // Q spans the columns of a: projecting a onto Q loses nothing.
        let proj = q.matmul(&q.matmul_tn(&a));
        assert!(proj.max_abs_diff(&a) <= 1e-10 * (1.0 + a.norm1()));
    }
}

#[test]
fn orthonormal_columns_rank_deficient_stays_orthonormal() {
    let mut rng = Prng::seed_from_u64(0x0072);
    // Three distinct deficiency patterns: an all-zero column, a repeated
    // column, and a matrix that is an outer product (rank one).
    let mut zero_col = rng.normal_mat(30, 5);
    for r in 0..30 {
        zero_col[(r, 2)] = 0.0;
    }
    let mut repeated = rng.normal_mat(30, 5);
    for r in 0..30 {
        repeated[(r, 4)] = repeated[(r, 0)];
    }
    let u = rng.normal_vec(30);
    let v = rng.normal_vec(5);
    let rank_one = Mat::from_fn(30, 5, |i, j| u[i] * v[j]);

    for (name, a) in [("zero-col", zero_col), ("repeated", repeated), ("rank-one", rank_one)] {
        let q = orthonormal_columns(&a);
        assert_eq!((q.rows(), q.cols()), (30, 5), "{name}");
        let defect = orthonormality_defect(&q);
        assert!(defect <= ORTHO_TOL, "{name}: defect {defect:.3e}");
    }
}

#[test]
fn orthonormal_columns_wide_input_gives_full_square_basis() {
    let mut rng = Prng::seed_from_u64(0x0073);
    let a = rng.normal_mat(6, 17);
    let q = orthonormal_columns(&a);
    assert_eq!((q.rows(), q.cols()), (6, 6));
    assert!(orthonormality_defect(&q) <= ORTHO_TOL);
}

#[test]
fn top_singular_triplets_reconstructs_low_rank_input() {
    let mut rng = Prng::seed_from_u64(0x0074);
    // Build an exactly rank-4 matrix and recover it from its top 4 triplets.
    let left = rng.normal_mat(25, 4);
    let right = rng.normal_mat(4, 18);
    let a = left.matmul(&right);
    let svd = top_singular_triplets(&a, 4).expect("rank fits");
    assert_eq!((svd.u.rows(), svd.u.cols()), (25, 4));
    assert_eq!(svd.s.len(), 4);
    assert_eq!((svd.vt.rows(), svd.vt.cols()), (4, 18));
    let rebuilt = svd.reconstruct();
    let scale = a.frobenius_sq().sqrt().max(1.0);
    assert!(rebuilt.max_abs_diff(&a) / scale <= 1e-10);
    // Both factors orthonormal, singular values sorted non-negative.
    assert!(orthonormality_defect(&svd.u) <= ORTHO_TOL);
    assert!(orthonormality_defect(&svd.vt.transpose()) <= ORTHO_TOL);
    assert!(svd.s.windows(2).all(|w| w[0] >= w[1]) && svd.s.iter().all(|&s| s >= 0.0));
}

#[test]
fn top_singular_triplets_single_component() {
    let mut rng = Prng::seed_from_u64(0x0075);
    let a = rng.normal_mat(12, 9);
    let svd = top_singular_triplets(&a, 1).expect("d=1 fits");
    assert_eq!((svd.u.rows(), svd.u.cols()), (12, 1));
    assert_eq!(svd.s.len(), 1);
    // The top triplet dominates every other direction: σ₁ = max ‖Av‖ ≥ column norms.
    let full = top_singular_triplets(&a, 9).expect("full rank fits");
    assert!((svd.s[0] - full.s[0]).abs() <= 1e-10 * full.s[0].max(1.0));
}

#[test]
fn top_singular_triplets_wide_and_rank_deficient() {
    let mut rng = Prng::seed_from_u64(0x0076);
    // Wide (more columns than rows) and only rank 2.
    let left = rng.normal_mat(5, 2);
    let right = rng.normal_mat(2, 40);
    let a = left.matmul(&right);
    let svd = top_singular_triplets(&a, 5).expect("k = min(m,n) fits");
    assert_eq!(svd.s.len(), 5);
    // Trailing singular values vanish; reconstruction still exact.
    assert!(svd.s[2] <= 1e-8 * svd.s[0].max(1.0));
    let scale = a.frobenius_sq().sqrt().max(1.0);
    assert!(svd.reconstruct().max_abs_diff(&a) / scale <= 1e-10);
}

#[test]
fn top_singular_triplets_rejects_oversized_rank() {
    let mut rng = Prng::seed_from_u64(0x0077);
    let a = rng.normal_mat(7, 3);
    match top_singular_triplets(&a, 4) {
        Err(LinalgError::RankTooLarge { requested: 4, available: 3 }) => {}
        other => panic!("expected RankTooLarge, got {other:?}"),
    }
}

#[test]
fn subspace_overlap_identical_rotated_and_orthogonal() {
    let mut rng = Prng::seed_from_u64(0x0078);
    let a = rng.normal_mat(20, 3);
    // Same space under an invertible column mix: overlap 1.
    let mix = rng.normal_mat(3, 3);
    let mixed = a.matmul(&mix);
    let same = subspace_overlap(&a, &mixed).expect("svd converges");
    assert!((same - 1.0).abs() <= 1e-9, "same-space overlap {same}");
    // Orthogonal complement built by Gram–Schmidt against Qa: overlap ~0.
    let qa = orthonormal_columns(&a);
    let mut other = rng.normal_mat(20, 3);
    let coeffs = qa.matmul_tn(&other);
    other.add_scaled(-1.0, &qa.matmul(&coeffs));
    let disjoint = subspace_overlap(&a, &other).expect("svd converges");
    assert!(disjoint <= 1e-9, "orthogonal overlap {disjoint}");
}

/// `U·diag(s)·Vᵀ` with random orthonormal `U` (m×k) and `V` (k×k).
fn planted(rng: &mut Prng, m: usize, s: &[f64]) -> Mat {
    let k = s.len();
    let mut u = orthonormal_columns(&rng.normal_mat(m, k));
    let v = orthonormal_columns(&rng.normal_mat(k, k));
    for r in 0..m {
        for (c, &sv) in s.iter().enumerate() {
            u[(r, c)] *= sv;
        }
    }
    u.matmul_nt(&v)
}

/// The randomized driver's recovery: `Z = Q·R`, `R = U_R·S·V_Rᵀ`, so the
/// top-d triplets of `Z` are `(Q·U_R, S)`.
fn recover_via_r(z: &Mat, d: usize) -> (Vec<f64>, Mat) {
    let qr = qr_thin(z);
    let svd = top_singular_triplets(&qr.r, d).expect("rank fits");
    (svd.s, qr.q.matmul(&svd.u))
}

#[test]
fn recovery_through_qr_factor_matches_direct_triplets() {
    let mut rng = Prng::seed_from_u64(0x0079);
    // Geometric planted spectrum 100 → 0.1: every consecutive gap is ~1.9×,
    // so each leading subspace is well defined.
    let geometric = |k: usize| -> Vec<f64> {
        (0..k).map(|i| 10f64.powf(2.0 - 3.0 * i as f64 / (k - 1) as f64)).collect()
    };
    let tall = planted(&mut rng, 400, &geometric(12));
    let square = planted(&mut rng, 12, &geometric(12));
    // Rank deficient: an all-zero column and a duplicated column.
    let mut deficient = planted(&mut rng, 300, &geometric(10));
    for r in 0..300 {
        deficient[(r, 3)] = 0.0;
        deficient[(r, 7)] = deficient[(r, 1)];
    }
    // Wide sketch (K > D): R is D×K and Q is D×D.
    let wide = rng.normal_mat(6, 9);

    let cases = [
        ("tall d<K", &tall, 5),
        ("tall d==K", &tall, 12),
        ("square d==K", &square, 12),
        ("rank-deficient", &deficient, 5),
        ("wide", &wide, 4),
    ];
    for (name, z, d) in cases {
        let direct = top_singular_triplets(z, d).expect("rank fits");
        let (s, c) = recover_via_r(z, d);
        assert_eq!((c.rows(), c.cols()), (z.rows(), d), "{name}");
        for (i, (&got, &want)) in s.iter().zip(&direct.s).enumerate() {
            let rel = (got - want).abs() / want;
            assert!(rel <= 1e-12, "{name}: s[{i}] {got:e} vs {want:e} (rel {rel:.3e})");
        }
        // Q·U_R is exactly as orthonormal as Jacobi's own U on Z (whose
        // stopping rule is absolute, so weak directions retain ~1e-9).
        let (got, want) = (orthonormality_defect(&c), orthonormality_defect(&direct.u));
        assert!(got <= want + ORTHO_TOL, "{name}: defect {got:.3e} vs direct {want:.3e}");
        let overlap = subspace_overlap(&c, &direct.u).expect("svd converges");
        assert!(overlap >= 1.0 - 1e-10, "{name}: subspace overlap {overlap}");
    }
}
