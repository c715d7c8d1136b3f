//! The element types the hot kernels are generic over.
//!
//! Every kernel in [`crate::kernels`] that the EM block pipeline runs —
//! `Y·CM`, the `XᵀX` Gram, the `YᵀX` scatter and the `AᵀB` GEMM — is
//! written once over a [`Scalar`], so its determinism contract (splits
//! depend only on the problem shape, reductions run in chunk order) is
//! stated and tested once for both precisions. The trait is sealed:
//! `f64` is the reference arithmetic and `f32` the fast arm of the
//! [`Precision`](crate::Precision) ladder, and nothing else implements it.
//!
//! What differs per type lives here and nowhere else: the conversions to
//! and from `f64`, how buffers are obtained and handed back, the
//! association of the EM `ss3` row dot, the portable `matmul_tn`
//! register-tile geometry, and the AVX-512 `matmul_tn` tile (`_pd` vs
//! `_ps` intrinsics, 8 vs 16 lanes per register).

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use crate::dense::Dense;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// A floating-point element type the generic kernels run in (`f64` or
/// `f32`).
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Debug
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Elements per 512-bit vector register (8 for `f64`, 16 for `f32`).
    const AVX512_LANES: usize;

    /// Nearest value of this type (round-to-nearest-even; exact for `f64`).
    fn from_f64(v: f64) -> Self;
    /// The value as `f64` (exact: every `f32` is an `f64`).
    fn to_f64(self) -> f64;
    /// Widens a buffer to `f64`; an `f64` buffer is moved, not copied.
    fn widen(v: Vec<Self>) -> Vec<f64>;
    /// A buffer of `len` zeros. `f64` buffers come from the process-wide
    /// freelist in [`crate::scratch`]; other types are freshly allocated.
    fn take_zeroed(len: usize) -> Vec<Self>;
    /// Retires a buffer from [`Self::take_zeroed`]: back to the freelist
    /// for `f64`, dropped otherwise.
    fn recycle(v: Vec<Self>);
    /// The per-row dot product of the EM `ss3` pass: the four-lane
    /// [`crate::vector::dot`] for `f64`, a strict left-to-right sum for
    /// `f32`. Each precision arm's fitted model depends on its
    /// association bit for bit.
    fn ss3_row_dot(a: &[Self], b: &[Self]) -> Self;

    /// The portable `matmul_tn` chunk kernel at this type's register-tile
    /// geometry: 8 output rows × one 512-bit vector of output columns
    /// (8×8 for `f64`, 8×16 for `f32`).
    fn tn_rows_portable(a: &Dense<Self>, b: &Dense<Self>, start: usize, end: usize, out: &mut [Self]);

    /// One AVX-512 `matmul_tn` register tile: `R × (AVX512_LANES·G)`
    /// outputs accumulated over `len` rows with fused multiply-adds, then
    /// added into `o0` once. `G` is the number of fused column registers.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f`. For every `t < R` and `r < len`,
    /// `a0 + r·astride + t` must be readable; for every `r < len`,
    /// `b0 + r·bstride + [0, AVX512_LANES·G)` must be readable; and for
    /// every `t < R`, `o0 + t·ostride + [0, AVX512_LANES·G)` must be
    /// readable and writable.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tn_tile_avx512<const R: usize, const G: usize>(
        a0: *const Self,
        astride: usize,
        b0: *const Self,
        bstride: usize,
        len: usize,
        o0: *mut Self,
        ostride: usize,
    );
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    const AVX512_LANES: usize = 8;

    #[inline(always)]
    fn from_f64(v: f64) -> f64 {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    fn widen(v: Vec<f64>) -> Vec<f64> {
        v
    }

    fn take_zeroed(len: usize) -> Vec<f64> {
        crate::scratch::take_zeroed(len)
    }

    fn recycle(v: Vec<f64>) {
        crate::scratch::recycle(v)
    }

    fn ss3_row_dot(a: &[f64], b: &[f64]) -> f64 {
        crate::vector::dot(a, b)
    }

    fn tn_rows_portable(a: &Dense<f64>, b: &Dense<f64>, start: usize, end: usize, out: &mut [f64]) {
        crate::kernels::matmul_tn_rows_portable::<f64, 8, 8>(a, b, start, end, out)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn tn_tile_avx512<const R: usize, const G: usize>(
        a0: *const f64,
        astride: usize,
        b0: *const f64,
        bstride: usize,
        len: usize,
        o0: *mut f64,
        ostride: usize,
    ) {
        use std::arch::x86_64::{
            _mm_prefetch, _mm512_add_pd, _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd,
            _mm512_setzero_pd, _mm512_storeu_pd, _MM_HINT_T0,
        };
        let mut acc = [[_mm512_setzero_pd(); G]; R];
        let mut ap = a0;
        let mut bp = b0;
        for _ in 0..len {
            // Pull in the cache line one to the *right* of this read: the
            // line this row's next-but-one column sweep will need, ~a full
            // sweep (thousands of iterations) from now. Prefetching down the
            // stride instead would target cold pages, and `prefetcht0` is
            // silently dropped on a TLB miss — this row's page is already
            // mapped, so the rightward prefetch always lands. wrapping_add
            // keeps the address computation defined at the row end
            // (prefetching past the buffer is architecturally harmless).
            _mm_prefetch::<_MM_HINT_T0>(ap.wrapping_add(8) as *const i8);
            let mut bv = [_mm512_setzero_pd(); G];
            for (g, v) in bv.iter_mut().enumerate() {
                *v = _mm512_loadu_pd(bp.add(8 * g));
            }
            for (t, acc_row) in acc.iter_mut().enumerate() {
                let at = _mm512_set1_pd(*ap.add(t));
                for (g, acc_tg) in acc_row.iter_mut().enumerate() {
                    // Fused multiply-add: this host has a single 512-bit FP
                    // port, so fusing halves the FP µop count. Integer-valued
                    // inputs stay exact (fma of exact integers is exact);
                    // random inputs move only in the last bits vs the
                    // separate-rounding reference.
                    *acc_tg = _mm512_fmadd_pd(at, bv[g], *acc_tg);
                }
            }
            ap = ap.add(astride);
            bp = bp.add(bstride);
        }
        for (t, acc_row) in acc.iter().enumerate() {
            for (g, acc_tg) in acc_row.iter().enumerate() {
                let o = o0.add(t * ostride + 8 * g);
                _mm512_storeu_pd(o, _mm512_add_pd(_mm512_loadu_pd(o), *acc_tg));
            }
        }
    }
}

impl Scalar for f32 {
    const ZERO: f32 = 0.0;
    const ONE: f32 = 1.0;
    const AVX512_LANES: usize = 16;

    #[inline(always)]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    fn widen(v: Vec<f32>) -> Vec<f64> {
        v.into_iter().map(f64::from).collect()
    }

    fn take_zeroed(len: usize) -> Vec<f32> {
        vec![0.0; len]
    }

    fn recycle(_: Vec<f32>) {}

    fn ss3_row_dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
        a.iter().zip(b).fold(0.0, |s, (&x, &y)| s + x * y)
    }

    fn tn_rows_portable(a: &Dense<f32>, b: &Dense<f32>, start: usize, end: usize, out: &mut [f32]) {
        crate::kernels::matmul_tn_rows_portable::<f32, 8, 16>(a, b, start, end, out)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn tn_tile_avx512<const R: usize, const G: usize>(
        a0: *const f32,
        astride: usize,
        b0: *const f32,
        bstride: usize,
        len: usize,
        o0: *mut f32,
        ostride: usize,
    ) {
        use std::arch::x86_64::{
            _mm_prefetch, _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps,
            _mm512_setzero_ps, _mm512_storeu_ps, _MM_HINT_T0,
        };
        let mut acc = [[_mm512_setzero_ps(); G]; R];
        let mut ap = a0;
        let mut bp = b0;
        for _ in 0..len {
            // Rightward prefetch, as in the f64 tile.
            _mm_prefetch::<_MM_HINT_T0>(ap.wrapping_add(16) as *const i8);
            let mut bv = [_mm512_setzero_ps(); G];
            for (g, v) in bv.iter_mut().enumerate() {
                *v = _mm512_loadu_ps(bp.add(16 * g));
            }
            for (t, acc_row) in acc.iter_mut().enumerate() {
                let at = _mm512_set1_ps(*ap.add(t));
                for (g, acc_tg) in acc_row.iter_mut().enumerate() {
                    *acc_tg = _mm512_fmadd_ps(at, bv[g], *acc_tg);
                }
            }
            ap = ap.add(astride);
            bp = bp.add(bstride);
        }
        for (t, acc_row) in acc.iter().enumerate() {
            for (g, acc_tg) in acc_row.iter().enumerate() {
                let o = o0.add(t * ostride + 16 * g);
                _mm512_storeu_ps(o, _mm512_add_ps(_mm512_loadu_ps(o), *acc_tg));
            }
        }
    }
}
