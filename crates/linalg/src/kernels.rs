//! Cache-blocked, multi-threaded matrix kernels.
//!
//! sPCA's runtime is dominated by a handful of products — the distributed
//! `YtX`/`XtX` pass (`matmul_tn`), the sparse `Y·CM` recompute
//! (`SparseMat::mul_dense`), and the small driver-side GEMMs — so this
//! module gives them proper kernels instead of the seed's row-axpy triple
//! loops. [`Mat`](crate::Mat) and [`SparseMat`](crate::SparseMat) route
//! their products here; the original seed loops are preserved verbatim in
//! [`naive`] as the reference the equivalence tests and the benchmark
//! harness compare against.
//!
//! Three layers:
//!
//! * **Micro-kernels** — register-blocked inner loops: 4-row fused rank-1
//!   updates ([`vector::axpy4`]) for the normal and transposed products,
//!   a 2×4 accumulator tile for `A·Bᵀ`, pairwise-fused axpys for sparse
//!   rows. The fusion is where the single-thread win comes from: one pass
//!   over the output per 4 updates instead of 4 passes.
//! * **Blocking** — the reduction dimension of `matmul_tn` is cut into
//!   fixed row chunks so each partial stays cache-resident.
//! * **Threading** — large products fan row chunks out on the shared
//!   [`WorkerPool`]; small ones never touch the pool.
//!
//! # Determinism contract
//!
//! Split points depend on the *problem shape only*, never on the worker
//! count, and reductions merge partials in chunk-index order. Kernel
//! output is therefore bit-for-bit identical on any pool — 1, 2, or 64
//! workers — which the kernel-equivalence suite asserts directly.
//!
//! # Precision
//!
//! The kernels of the EM block pipeline — [`sparse_mul_dense_into`],
//! [`syrk_tn`], [`spmm_tn`]/[`spmm_tn_packed`] and [`matmul_tn`] — are
//! generic over the [`Scalar`] they multiply and accumulate in, so the
//! `f32` precision arm runs the very same splits and accumulation orders
//! as `f64`. Sparse values stay `f64` in the CSR matrix and are narrowed
//! as they are read.

use crate::dense::{Dense, Mat};
use crate::pool::WorkerPool;
use crate::scalar::Scalar;
use crate::sparse::SparseMat;
use crate::vector;

/// Products below this many flops (2·m·k·n) run single-threaded: pool
/// round-trips cost more than they save on d×d-sized driver matrices.
const PAR_MIN_FLOPS: usize = 2_000_000;

/// Target flops per parallel chunk — big enough to amortize dispatch,
/// small enough to load-balance.
const CHUNK_FLOPS: usize = 2_000_000;

/// Upper bound on chunk count: bounds dispatch overhead everywhere, and —
/// for the `matmul_tn` reduction, whose partial buffers are full output
/// copies — the zero-fill + reduce traffic, which at wide shapes rivals
/// the kernel itself if chunks proliferate.
const MAX_CHUNKS: usize = 16;

/// Cache-residency band for the sparse `YᵀX` scatter: each band of output
/// rows is kept to at most this many f64s (32 KiB) so the random-row
/// axpys land in L1. Non-zeros are bucketed by band up front (one stable
/// counting pass), so extra bands cost no rescans.
pub(crate) const SCATTER_BAND_ELEMS: usize = 4_096;

/// Upper bound on scatter band count: bounds task-dispatch overhead and
/// the size of the per-band bucket table for very wide outputs.
pub(crate) const MAX_SCATTER_BANDS: usize = 64;

/// Deterministic chunk count for a loop of `rows` iterations costing
/// `flops_per_row` each: a function of the problem shape only.
pub(crate) fn chunk_count(rows: usize, flops_per_row: usize) -> usize {
    let total = rows.saturating_mul(flops_per_row);
    if total < PAR_MIN_FLOPS || rows <= 1 {
        return 1;
    }
    (total / CHUNK_FLOPS).clamp(1, MAX_CHUNKS.min(rows))
}

/// Splits `0..rows` into `chunks` near-equal ranges (first `rows % chunks`
/// ranges get one extra row) — the same fixed split regardless of workers.
pub(crate) fn row_ranges(rows: usize, chunks: usize) -> Vec<(usize, usize)> {
    let base = rows / chunks;
    let extra = rows % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Splits `0..y.rows()` into `chunks` ranges holding near-equal *non-zero*
/// counts: boundary `c` is the first row at which the cumulative nnz
/// reaches `c/chunks` of the total (a binary search on the CSR row
/// pointers). A function of the matrix only — worker counts never move a
/// boundary — and each output row is still produced by exactly one task,
/// so row-parallel kernels stay bit-identical under this split. This is
/// what fixes the skew that equal *row* splits suffer on power-law
/// sparsity: one hot chunk used to serialize the whole product.
pub(crate) fn nnz_ranges(y: &SparseMat, chunks: usize) -> Vec<(usize, usize)> {
    let rows = y.rows();
    let total = y.nnz();
    let indptr = y.indptr();
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for c in 1..=chunks {
        let end = if c == chunks {
            rows
        } else {
            let target = total * c / chunks;
            indptr.partition_point(|&p| p < target).clamp(start, rows)
        };
        out.push((start, end));
        start = end;
    }
    out
}

/// Runs `rows_fn(start, end, slice)` for every range on `pool`, where
/// `slice` is that range's own `(end-start)×width` block of the row-major
/// `out`: disjoint output rows, so no copies and no reduction, and every
/// output row is written by exactly one task (bit-identical on any pool).
/// A single range runs inline.
fn run_row_ranges<T: Send>(
    pool: &WorkerPool,
    ranges: &[(usize, usize)],
    width: usize,
    out: &mut [T],
    rows_fn: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    let rows_fn = &rows_fn;
    let mut tasks = Vec::with_capacity(ranges.len());
    let mut rest = out;
    for &(start, end) in ranges {
        let (head, tail) = rest.split_at_mut((end - start) * width);
        tasks.push(move || rows_fn(start, end, head));
        rest = tail;
    }
    pool.run(tasks);
}

/// Best-effort prefetch of dense row `c` of `b` into L1 — the sparse
/// product's B-row reads are data-dependent gathers, so the hardware
/// prefetcher cannot see them coming.
#[inline(always)]
fn prefetch_row<T: Scalar>(b: &Dense<T>, c: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no architectural effect beyond the cache, and
    // the pointer is a live in-bounds row.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(b.row(c).as_ptr() as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (b, c);
}

// ---------------------------------------------------------------------------
// matmul: C = A (m×k) · B (k×n)
// ---------------------------------------------------------------------------

/// `A·B` on the process-global pool.
pub fn matmul(a: &Mat, b: &Mat) -> Mat {
    matmul_with_pool(WorkerPool::global(), a, b)
}

/// `A·B` on an explicit pool (bit-identical results on any pool).
pub fn matmul_with_pool(pool: &WorkerPool, a: &Mat, b: &Mat) -> Mat {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(
        k,
        b.rows(),
        "matmul: inner dimensions differ ({}x{} * {}x{})",
        m,
        k,
        b.rows(),
        n
    );
    let _span = obs::span_lazy("kernel", || format!("matmul {m}x{k}x{n}"))
        .with_flops(2 * m as u64 * k as u64 * n as u64);
    let mut out = Mat::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    let ranges = row_ranges(m, chunk_count(m, 2 * k * n));
    run_row_ranges(pool, &ranges, n, out.data_mut(), |lo, hi, o| matmul_rows(a, b, lo, hi, o));
    out
}

/// Computes output rows `[start, end)` of `A·B` into `out` (zeroed,
/// `(end-start)×n` row-major). Rows are processed in groups of four so each
/// `B` row loaded from memory feeds four output rows.
fn matmul_rows(a: &Mat, b: &Mat, start: usize, end: usize, out: &mut [f64]) {
    let n = b.cols();
    let k = a.cols();
    let mut i = start;
    while i + 4 <= end {
        let base = (i - start) * n;
        let (o0, rest) = out[base..base + 4 * n].split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let (a0, a1, a2, a3) = (a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3));
        for kk in 0..k {
            let b_row = b.row(kk);
            let (c0, c1, c2, c3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
            if c0 == 0.0 && c1 == 0.0 && c2 == 0.0 && c3 == 0.0 {
                continue;
            }
            for j in 0..n {
                let bj = b_row[j];
                o0[j] += c0 * bj;
                o1[j] += c1 * bj;
                o2[j] += c2 * bj;
                o3[j] += c3 * bj;
            }
        }
        i += 4;
    }
    while i < end {
        let base = (i - start) * n;
        let o = &mut out[base..base + n];
        let a_row = a.row(i);
        for (kk, &c) in a_row.iter().enumerate() {
            if c != 0.0 {
                vector::axpy(c, b.row(kk), o);
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// matmul_tn: C = Aᵀ (k×m)·B — a reduction over the shared row dimension
// ---------------------------------------------------------------------------

/// `Aᵀ·B` on the process-global pool.
pub fn matmul_tn<T: Scalar>(a: &Dense<T>, b: &Dense<T>) -> Dense<T> {
    matmul_tn_with_pool(WorkerPool::global(), a, b)
}

/// `Aᵀ·B` on an explicit pool. The shared row dimension is cut into fixed
/// chunks; per-chunk partials are summed in chunk order, so the result is
/// identical for every worker count.
pub fn matmul_tn_with_pool<T: Scalar>(pool: &WorkerPool, a: &Dense<T>, b: &Dense<T>) -> Dense<T> {
    let rows = a.rows();
    let (acols, bcols) = (a.cols(), b.cols());
    assert_eq!(rows, b.rows(), "matmul_tn: row counts differ ({} vs {})", rows, b.rows());
    let _span = obs::span_lazy("kernel", || format!("matmul_tn {rows}x{acols}x{bcols}"))
        .with_flops(2 * rows as u64 * acols as u64 * bcols as u64);
    let mut out = Dense::zeros(acols, bcols);
    if rows == 0 || acols == 0 || bcols == 0 {
        return out;
    }
    let chunks = chunk_count(rows, 2 * acols * bcols);
    if chunks == 1 {
        matmul_tn_rows(a, b, 0, rows, out.data_mut());
        return out;
    }
    let ranges = row_ranges(rows, chunks);
    if pool.workers() == 1 {
        // Single worker: run the same chunks in the same order, but
        // accumulate straight into the output. The partial-buffer path
        // below adds each chunk's tile sums into a zeroed partial and then
        // axpy-adds the partials in chunk order — the identical additions
        // in the identical left-associated order — so this fast path is
        // bit-for-bit the same result without the zero-fill and reduce
        // traffic (which at wide shapes is several output-sized sweeps).
        for (start, end) in ranges {
            matmul_tn_rows(a, b, start, end, out.data_mut());
        }
        return out;
    }
    let partials: Vec<Vec<T>> = pool.run(
        ranges
            .into_iter()
            .map(|(start, end)| {
                move || {
                    let mut partial = vec![T::ZERO; acols * bcols];
                    matmul_tn_rows(a, b, start, end, &mut partial);
                    partial
                }
            })
            .collect(),
    );
    // Reduce in chunk-index order — part of the determinism contract.
    let data = out.data_mut();
    for partial in &partials {
        vector::axpy(T::ONE, partial, data);
    }
    out
}

/// Accumulates `Σ_{r in [start,end)} (A_r)ᵀ ⊗ B_r` into `out`
/// (`acols × bcols`, row-major).
///
/// Dispatches to a hand-written AVX-512 kernel when the CPU has it, and
/// to the portable blocked kernel ([`Scalar::tn_rows_portable`])
/// otherwise. Both accumulate every output element in ascending-`r` order
/// within a chunk, but the AVX-512 tile fuses each multiply-add into one
/// rounding while the portable kernel rounds the product and the sum
/// separately, like the naive reference. The two paths therefore agree
/// bit for bit only where products and partial sums are exact (for
/// example on small-integer inputs) and otherwise differ in the last
/// bits. On a given host the path is fixed, so the result is still
/// bitwise identical for every pool size: the only reassociation is at
/// the fixed chunk boundaries of the parallel reduction.
fn matmul_tn_rows<T: Scalar>(a: &Dense<T>, b: &Dense<T>, start: usize, end: usize, out: &mut [T]) {
    if end == start {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f presence was just checked; every pointer the
            // kernel dereferences stays inside `a`, `b`, or `out`.
            unsafe { matmul_tn_rows_avx512(a, b, start, end, out) };
            return;
        }
    }
    T::tn_rows_portable(a, b, start, end, out);
}

/// AVX-512 `matmul_tn` chunk kernel: 4 output rows × up to 4 zmm column
/// groups per pass — 16 accumulators + 4 B vectors + 1 broadcast = 21 of
/// the 32 vector registers — so each A element is broadcast once and
/// feeds up to `4·AVX512_LANES` output columns (32 for `f64`, 64 for
/// `f32`).
///
/// There is no packing: A is walked directly at its natural row stride,
/// each element read exactly once per call, with a software prefetch a
/// few rows ahead to hide the strided-walk latency; B rows are
/// contiguous and stay L1-resident across the `i0` sweep.
///
/// # Safety
///
/// The CPU must support `avx512f`, and `[start, end)` must be a row range
/// of both `a` and `b` with `out` holding `a.cols() × b.cols()` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn matmul_tn_rows_avx512<T: Scalar>(
    a: &Dense<T>,
    b: &Dense<T>,
    start: usize,
    end: usize,
    out: &mut [T],
) {
    let acols = a.cols();
    let bcols = b.cols();
    let len = end - start;
    let w = T::AVX512_LANES;
    let imain = acols - acols % TN_AVX_IR;
    let jmain = bcols - bcols % w;

    let abase = a.data().as_ptr().add(start * acols);
    let bbase = b.data().as_ptr().add(start * bcols);
    let obase = out.as_mut_ptr();

    let mut i0 = 0;
    while i0 < imain {
        let a0 = abase.add(i0);
        let mut j0 = 0;
        while j0 + 4 * w <= jmain {
            T::tn_tile_avx512::<TN_AVX_IR, 4>(a0, acols, bbase.add(j0), bcols, len, obase.add(i0 * bcols + j0), bcols);
            j0 += 4 * w;
        }
        if j0 + 2 * w <= jmain {
            T::tn_tile_avx512::<TN_AVX_IR, 2>(a0, acols, bbase.add(j0), bcols, len, obase.add(i0 * bcols + j0), bcols);
            j0 += 2 * w;
        }
        if j0 + w <= jmain {
            T::tn_tile_avx512::<TN_AVX_IR, 1>(a0, acols, bbase.add(j0), bcols, len, obase.add(i0 * bcols + j0), bcols);
        }
        i0 += TN_AVX_IR;
    }

    tn_remainders(a, b, start, end, out, imain, jmain);
}

/// Output-row block of the AVX-512 `matmul_tn` tile: at `G = 4` fused
/// column groups the register budget is `4·4` accumulators + 4 B vectors
/// + 1 broadcast = 21 of the 32 zmm registers. (A 6-row block fits the
/// register file too, but measured slower on the reference host.)
#[cfg(target_arch = "x86_64")]
const TN_AVX_IR: usize = 4;

/// Portable `matmul_tn` chunk kernel at an `IR × JR` register tile (each
/// [`Scalar`] picks its geometry in [`Scalar::tn_rows_portable`]).
///
/// Both operands are repacked once per chunk into row-interleaved panels:
/// panel `p` holds each row\'s `[p·W, (p+1)·W)` column slice back to back,
/// so the micro-kernel reads two sequential L1-resident streams — which
/// is what lets the auto-vectorizer emit full-width loads with no strided
/// access and no per-iteration bounds checks. The pack itself reads A and
/// B row by row (sequential, prefetch-friendly), while its scattered
/// panel writes cycle through a working set of one cache line per panel.
pub(crate) fn matmul_tn_rows_portable<T: Scalar, const IR: usize, const JR: usize>(
    a: &Dense<T>,
    b: &Dense<T>,
    start: usize,
    end: usize,
    out: &mut [T],
) {
    let acols = a.cols();
    let bcols = b.cols();
    let len = end - start;
    let imain = acols - acols % IR;
    let jmain = bcols - bcols % JR;
    let igroups = imain / IR;
    let jgroups = jmain / JR;

    let mut apack = vec![T::ZERO; igroups * len * IR];
    let mut bpack = vec![T::ZERO; jgroups * len * JR];
    for rr in 0..len {
        let a_row = a.row(start + rr);
        for (p, a_blk) in a_row[..imain].chunks_exact(IR).enumerate() {
            let a_blk: &[T; IR] = a_blk.try_into().expect("panel width");
            let dst: &mut [T; IR] =
                (&mut apack[(p * len + rr) * IR..][..IR]).try_into().expect("panel slot");
            *dst = *a_blk;
        }
        let b_row = b.row(start + rr);
        for (g, b_blk) in b_row[..jmain].chunks_exact(JR).enumerate() {
            let b_blk: &[T; JR] = b_blk.try_into().expect("panel width");
            let dst: &mut [T; JR] =
                (&mut bpack[(g * len + rr) * JR..][..JR]).try_into().expect("panel slot");
            *dst = *b_blk;
        }
    }

    for p in 0..igroups {
        let apanel = &apack[p * len * IR..(p + 1) * len * IR];
        let i0 = p * IR;
        for g in 0..jgroups {
            let bgrp = &bpack[g * len * JR..(g + 1) * len * JR];
            let acc = tn_tile_portable::<T, IR, JR>(apanel, bgrp);
            let j0 = g * JR;
            for (t, acc_row) in acc.iter().enumerate() {
                let o = &mut out[(i0 + t) * bcols + j0..(i0 + t) * bcols + j0 + JR];
                for (u, &v) in acc_row.iter().enumerate() {
                    o[u] += v;
                }
            }
        }
    }

    tn_remainders(a, b, start, end, out, imain, jmain);
}

/// The `matmul_tn` portable micro-kernel: `acc[t][u] = Σ_rr apack[rr][t] ·
/// bgrp[rr][u]` over two row-interleaved sequential panels.
///
/// Kept `#[inline(never)]`: compiled in isolation the loop auto-vectorizes
/// to a clean register tile, while inlined into the caller\'s loop nest the
/// extra live state defeats the vectorizer and it scalarizes (measured
/// ~4× slower). The call overhead is amortized over the chunk rows.
#[inline(never)]
fn tn_tile_portable<T: Scalar, const IR: usize, const JR: usize>(
    apack: &[T],
    bgrp: &[T],
) -> [[T; JR]; IR] {
    let mut acc = [[T::ZERO; JR]; IR];
    for (a_blk, b_blk) in apack.chunks_exact(IR).zip(bgrp.chunks_exact(JR)) {
        let a_blk: &[T; IR] = a_blk.try_into().expect("tile height");
        let b_blk: &[T; JR] = b_blk.try_into().expect("tile width");
        for u in 0..JR {
            let bu = b_blk[u];
            for t in 0..IR {
                acc[t][u] += a_blk[t] * bu;
            }
        }
    }
    acc
}

/// Output rows `>= imain` (full column range) and output columns
/// `>= jmain` (for rows `< imain`): the per-row axpy path shared by both
/// chunk kernels, still accumulating in ascending `r`.
fn tn_remainders<T: Scalar>(
    a: &Dense<T>,
    b: &Dense<T>,
    start: usize,
    end: usize,
    out: &mut [T],
    imain: usize,
    jmain: usize,
) {
    let acols = a.cols();
    let bcols = b.cols();
    if imain < acols {
        for r in start..end {
            let a_row = a.row(r);
            let b_row = b.row(r);
            for i in imain..acols {
                let c = a_row[i];
                if c != T::ZERO {
                    vector::axpy(c, b_row, &mut out[i * bcols..(i + 1) * bcols]);
                }
            }
        }
    }
    if jmain < bcols {
        for r in start..end {
            let a_row = a.row(r);
            let b_row = b.row(r);
            for i in 0..imain {
                let c = a_row[i];
                if c != T::ZERO {
                    let o = &mut out[i * bcols + jmain..(i + 1) * bcols];
                    for (oj, &bj) in o.iter_mut().zip(&b_row[jmain..]) {
                        *oj += c * bj;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// matmul_nt: C = A (m×k) · Bᵀ (k×n)
// ---------------------------------------------------------------------------

/// `A·Bᵀ` on the process-global pool.
pub fn matmul_nt(a: &Mat, b: &Mat) -> Mat {
    matmul_nt_with_pool(WorkerPool::global(), a, b)
}

/// `A·Bᵀ` on an explicit pool (bit-identical results on any pool).
pub fn matmul_nt_with_pool(pool: &WorkerPool, a: &Mat, b: &Mat) -> Mat {
    let (m, k) = (a.rows(), a.cols());
    let n = b.rows();
    assert_eq!(k, b.cols(), "matmul_nt: column counts differ ({} vs {})", k, b.cols());
    let _span = obs::span_lazy("kernel", || format!("matmul_nt {m}x{k}x{n}"))
        .with_flops(2 * m as u64 * k as u64 * n as u64);
    let mut out = Mat::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    let ranges = row_ranges(m, chunk_count(m, 2 * k * n));
    run_row_ranges(pool, &ranges, n, out.data_mut(), |lo, hi, o| matmul_nt_rows(a, b, lo, hi, o));
    out
}

/// Computes output rows `[start, end)` of `A·Bᵀ` into `out` with a 2×4
/// accumulator tile: each loaded `a`/`b` element feeds several dot
/// products, and every output element still accumulates in ascending-`k`
/// order (the seed's order).
fn matmul_nt_rows(a: &Mat, b: &Mat, start: usize, end: usize, out: &mut [f64]) {
    let k = a.cols();
    let n = b.rows();
    let mut i = start;
    while i + 2 <= end {
        let (a0, a1) = (a.row(i), a.row(i + 1));
        let base = (i - start) * n;
        let mut j = 0;
        while j + 4 <= n {
            let (b0, b1, b2, b3) = (b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
            let mut acc = [0.0f64; 8];
            for kk in 0..k {
                let (x0, x1) = (a0[kk], a1[kk]);
                let (y0, y1, y2, y3) = (b0[kk], b1[kk], b2[kk], b3[kk]);
                acc[0] += x0 * y0;
                acc[1] += x0 * y1;
                acc[2] += x0 * y2;
                acc[3] += x0 * y3;
                acc[4] += x1 * y0;
                acc[5] += x1 * y1;
                acc[6] += x1 * y2;
                acc[7] += x1 * y3;
            }
            out[base + j..base + j + 4].copy_from_slice(&acc[0..4]);
            out[base + n + j..base + n + j + 4].copy_from_slice(&acc[4..8]);
            j += 4;
        }
        while j < n {
            let b_row = b.row(j);
            let (mut s0, mut s1) = (0.0f64, 0.0f64);
            for kk in 0..k {
                s0 += a0[kk] * b_row[kk];
                s1 += a1[kk] * b_row[kk];
            }
            out[base + j] = s0;
            out[base + n + j] = s1;
            j += 1;
        }
        i += 2;
    }
    if i < end {
        let a_row = a.row(i);
        let base = (i - start) * n;
        for j in 0..n {
            let b_row = b.row(j);
            let mut s = 0.0f64;
            for kk in 0..k {
                s += a_row[kk] * b_row[kk];
            }
            out[base + j] = s;
        }
    }
}

// ---------------------------------------------------------------------------
// matvec
// ---------------------------------------------------------------------------

/// `A·x` on the process-global pool.
pub fn matvec(a: &Mat, x: &[f64]) -> Vec<f64> {
    matvec_with_pool(WorkerPool::global(), a, x)
}

/// `A·x` on an explicit pool (bit-identical results on any pool).
pub fn matvec_with_pool(pool: &WorkerPool, a: &Mat, x: &[f64]) -> Vec<f64> {
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(k, x.len(), "matvec: dimension mismatch");
    let _span = obs::span_lazy("kernel", || format!("matvec {m}x{k}"))
        .with_flops(2 * m as u64 * k as u64);
    let mut out = vec![0.0; m];
    let ranges = row_ranges(m, chunk_count(m, 2 * k));
    run_row_ranges(pool, &ranges, 1, &mut out, |lo, hi, o| {
        for (i, slot) in (lo..hi).zip(o) {
            *slot = vector::dot(a.row(i), x);
        }
    });
    out
}

// ---------------------------------------------------------------------------
// Sparse · dense
// ---------------------------------------------------------------------------

/// `Y·B` for CSR `Y` on the process-global pool.
pub fn sparse_mul_dense<T: Scalar>(y: &SparseMat, b: &Dense<T>) -> Dense<T> {
    sparse_mul_dense_with_pool(WorkerPool::global(), y, b)
}

/// `Y·B` for CSR `Y` on an explicit pool. Row-parallel (each output row
/// depends on one input row), so results are bit-identical on any pool.
pub fn sparse_mul_dense_with_pool<T: Scalar>(
    pool: &WorkerPool,
    y: &SparseMat,
    b: &Dense<T>,
) -> Dense<T> {
    let mut out = Dense::zeros(y.rows(), b.cols());
    sparse_mul_dense_into_with_pool(pool, y, b, out.data_mut());
    out
}

/// `out += Y·B` for CSR `Y`, accumulating into a caller-provided
/// `y.rows() × b.cols()` row-major buffer (the batched EM path reuses one
/// scratch buffer across partitions instead of allocating per call).
/// The caller zeroes the buffer; results are bit-identical on any pool.
pub fn sparse_mul_dense_into<T: Scalar>(y: &SparseMat, b: &Dense<T>, out: &mut [T]) {
    sparse_mul_dense_into_with_pool(WorkerPool::global(), y, b, out)
}

/// [`sparse_mul_dense_into`] on an explicit pool.
pub fn sparse_mul_dense_into_with_pool<T: Scalar>(
    pool: &WorkerPool,
    y: &SparseMat,
    b: &Dense<T>,
    out: &mut [T],
) {
    let m = y.rows();
    let n = b.cols();
    assert_eq!(y.cols(), b.rows(), "mul_dense: inner dimensions differ");
    assert_eq!(out.len(), m * n, "mul_dense: output buffer is {} not {}", out.len(), m * n);
    let _span = obs::span_lazy("kernel", || format!("sparse_mul_dense {m}x{n} nnz={}", y.nnz()))
        .with_flops(2 * y.nnz() as u64 * n as u64);
    if m == 0 || n == 0 {
        return;
    }
    // Chunk count from the mean row cost, but chunk *boundaries* from the
    // cumulative nnz: equal-row splits serialize on skewed sparsity (one
    // hot chunk holds most of the work), while the nnz-balanced split
    // keeps every task near the same flop count. Both are functions of
    // the matrix only, so any pool produces identical bits.
    let mean_nnz = y.nnz() / m.max(1);
    let ranges = nnz_ranges(y, chunk_count(m, 2 * n * mean_nnz.max(1)));
    run_row_ranges(pool, &ranges, n, out, |lo, hi, o| sparse_rows_mul(y, b, lo, hi, o));
}

/// Computes output rows `[start, end)` of `Y·B` into `out`. Non-zeros are
/// consumed in quads, then a pair, then a single, with fused updates
/// ([`vector::axpy4`]/[`vector::axpy2`]) — bit-identical to sequential
/// axpys, a quarter of the passes over the output row. The next quad's
/// `B` rows are prefetched while the current one computes: the row
/// gathers are data-dependent, so without the hint every quad starts on
/// a cold DRAM access.
fn sparse_rows_mul<T: Scalar>(y: &SparseMat, b: &Dense<T>, start: usize, end: usize, out: &mut [T]) {
    let n = b.cols();
    for r in start..end {
        let row = y.row(r);
        let o = &mut out[(r - start) * n..(r - start + 1) * n];
        let nnz = row.indices.len();
        let v = |t: usize| T::from_f64(row.values[t]);
        let mut t = 0;
        while t + 4 <= nnz {
            for &c in row.indices[t + 4..nnz.min(t + 8)].iter() {
                prefetch_row(b, c as usize);
            }
            vector::axpy4(
                v(t),
                b.row(row.indices[t] as usize),
                v(t + 1),
                b.row(row.indices[t + 1] as usize),
                v(t + 2),
                b.row(row.indices[t + 2] as usize),
                v(t + 3),
                b.row(row.indices[t + 3] as usize),
                o,
            );
            t += 4;
        }
        if t + 2 <= nnz {
            let (c0, c1) = (row.indices[t] as usize, row.indices[t + 1] as usize);
            vector::axpy2(v(t), b.row(c0), v(t + 1), b.row(c1), o);
            t += 2;
        }
        if t < nnz {
            vector::axpy(v(t), b.row(row.indices[t] as usize), o);
        }
    }
}

// ---------------------------------------------------------------------------
// syrk_tn: C = Xᵀ·X — the XtX Gram accumulation of the batched EM path
// ---------------------------------------------------------------------------

/// `XᵀX` on the process-global pool. Only the upper triangle is
/// accumulated; the lower triangle is mirrored once at the end.
pub fn syrk_tn<T: Scalar>(x: &Dense<T>) -> Dense<T> {
    syrk_tn_with_pool(WorkerPool::global(), x)
}

/// `XᵀX` on an explicit pool.
///
/// Parallelism is over *output* rows: each task scans every row of `X` but
/// writes only its own disjoint band of the upper triangle, so there is no
/// partial-buffer reduction and every output element accumulates its
/// `x_r[i]·x_r[j]` terms in ascending-`r` order — the exact operation
/// sequence of the row-at-a-time EM reference (which axpys row `i` of the
/// Gram whenever `x_r[i] != 0`). The mirror step is exact too: f64
/// multiplication commutes bit-for-bit, so `C[j][i] = C[i][j]` reproduces
/// the lower-triangle accumulation of the reference (accumulators starting
/// at +0.0 can never become -0.0, so the reference's zero-skip asymmetry
/// cannot change bits either). Results are therefore bit-identical to the
/// reference on any pool size.
pub fn syrk_tn_with_pool<T: Scalar>(pool: &WorkerPool, x: &Dense<T>) -> Dense<T> {
    let (n, d) = (x.rows(), x.cols());
    let _span = obs::span_lazy("kernel", || format!("syrk_tn {n}x{d}"))
        .with_flops(n as u64 * d as u64 * (d as u64 + 1));
    let mut out = Dense::zeros(d, d);
    if n == 0 || d == 0 {
        return out;
    }
    // Mean flops per output row of the triangle: n·(d+1).
    let ranges = row_ranges(d, chunk_count(d, n * (d + 1)));
    run_row_ranges(pool, &ranges, d, out.data_mut(), |lo, hi, o| syrk_tn_band(x, lo, hi, o));
    for i in 0..d {
        for j in 0..i {
            out[(i, j)] = out[(j, i)];
        }
    }
    out
}

/// Accumulates upper-triangle output rows `[lo, hi)` of `XᵀX` into `out`
/// (`(hi-lo)×d` row-major; entries left of the diagonal stay zero).
fn syrk_tn_band<T: Scalar>(x: &Dense<T>, lo: usize, hi: usize, out: &mut [T]) {
    let d = x.cols();
    for r in 0..x.rows() {
        let row = x.row(r);
        for i in lo..hi {
            let xi = row[i];
            if xi != T::ZERO {
                let base = (i - lo) * d;
                vector::axpy(xi, &row[i..], &mut out[base + i..base + d]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// spmm_tn: C = Yᵀ·X for CSR Y — the YtX scatter of the batched EM path
// ---------------------------------------------------------------------------

/// `YᵀX` (`D×d` dense) for CSR `Y` on the process-global pool.
pub fn spmm_tn<T: Scalar>(y: &SparseMat, x: &Dense<T>) -> Dense<T> {
    spmm_tn_with_pool(WorkerPool::global(), y, x)
}

/// `YᵀX` on an explicit pool.
///
/// Same output-row parallelism as [`syrk_tn_with_pool`]: each task scans
/// every non-zero of `Y` but scatters only into its own disjoint band of
/// output rows, so every output row accumulates one axpy per contributing
/// non-zero in ascending input-row order — bit-identical to the
/// row-at-a-time reference on any pool size.
pub fn spmm_tn_with_pool<T: Scalar>(pool: &WorkerPool, y: &SparseMat, x: &Dense<T>) -> Dense<T> {
    assert_eq!(y.rows(), x.rows(), "spmm_tn: row counts differ ({} vs {})", y.rows(), x.rows());
    let mut out = Dense::zeros(y.cols(), x.cols());
    spmm_scatter(pool, y, x, None, out.data_mut());
    out
}

/// Packed `YᵀX`: like [`spmm_tn`], but output row `map[c]` accumulates
/// column `c` of `Y`, into a caller-provided `out_rows × x.cols()` slab
/// (zeroed by the caller). `map` must cover every column with a non-zero;
/// untouched columns may map anywhere (they contribute nothing). This is
/// the hash-free inner loop of the batched `YtxPartial`: the slab holds
/// only the columns a partition touches.
pub fn spmm_tn_packed<T: Scalar>(y: &SparseMat, x: &Dense<T>, map: &[u32], out: &mut [T]) {
    spmm_tn_packed_with_pool(WorkerPool::global(), y, x, map, out)
}

/// [`spmm_tn_packed`] on an explicit pool.
pub fn spmm_tn_packed_with_pool<T: Scalar>(
    pool: &WorkerPool,
    y: &SparseMat,
    x: &Dense<T>,
    map: &[u32],
    out: &mut [T],
) {
    assert_eq!(y.rows(), x.rows(), "spmm_tn: row counts differ ({} vs {})", y.rows(), x.rows());
    assert_eq!(map.len(), y.cols(), "spmm_tn: column map covers every Y column");
    spmm_scatter(pool, y, x, Some(map), out)
}

/// Shared scatter driver: `out` has `out.len()/x.cols()` rows; column `c`
/// of `Y` lands in row `map[c]` (or `c` when no map is given).
fn spmm_scatter<T: Scalar>(
    pool: &WorkerPool,
    y: &SparseMat,
    x: &Dense<T>,
    map: Option<&[u32]>,
    out: &mut [T],
) {
    let d = x.cols();
    if d == 0 {
        return;
    }
    assert_eq!(out.len() % d, 0, "spmm_tn: output is a whole number of rows");
    let out_rows = out.len() / d;
    let _span = obs::span_lazy("kernel", || {
        format!("spmm_tn {}x{out_rows}x{d} nnz={}", y.rows(), y.nnz())
    })
    .with_flops(2 * y.nnz() as u64 * d as u64);
    if out_rows == 0 || y.nnz() == 0 {
        return;
    }
    // The per-nnz axpys land on effectively random output rows, so a wide
    // output turns the scatter memory-bound. Band the output small enough
    // to stay cache-resident — a function of the output shape only, so
    // (like `chunk_count`) banding never affects results.
    let bands = out.len().div_ceil(SCATTER_BAND_ELEMS).clamp(1, MAX_SCATTER_BANDS.min(out_rows));
    if bands == 1 {
        spmm_scatter_band(y, x, map, 0, out_rows, out);
        return;
    }
    let band_rows = out_rows.div_ceil(bands);

    // Bucket the non-zeros by band in one stable counting pass: within a
    // band, entries keep the input scan order (ascending row, ascending
    // column), so every output element still accumulates its axpys in
    // exactly the row-at-a-time order — bit-identical on any pool size.
    let mut starts = vec![0usize; bands + 1];
    let target = |c: u32| -> usize {
        match map {
            Some(m) => m[c as usize] as usize,
            None => c as usize,
        }
    };
    for &c in y.col_indices() {
        starts[target(c) / band_rows + 1] += 1;
    }
    for b in 0..bands {
        starts[b + 1] += starts[b];
    }
    // (output row, input row, value) per non-zero, 16 bytes for f64.
    let mut entries: Vec<(u32, u32, T)> = vec![(0, 0, T::ZERO); y.nnz()];
    let mut next = starts.clone();
    for r in 0..y.rows() {
        let row = y.row(r);
        for (&c, &v) in row.indices.iter().zip(row.values) {
            let t = target(c);
            let slot = &mut next[t / band_rows];
            entries[*slot] = (t as u32, r as u32, T::from_f64(v));
            *slot += 1;
        }
    }

    let mut tasks: Vec<(usize, &[(u32, u32, T)], &mut [T])> = Vec::with_capacity(bands);
    let mut rest = out;
    for b in 0..bands {
        let lo = b * band_rows;
        let hi = ((b + 1) * band_rows).min(out_rows);
        let (head, tail) = rest.split_at_mut((hi - lo) * d);
        tasks.push((lo, &entries[starts[b]..starts[b + 1]], head));
        rest = tail;
    }
    pool.run(
        tasks
            .into_iter()
            .map(|(lo, band_entries, slice)| {
                move || {
                    for &(t, r, v) in band_entries {
                        let base = (t as usize - lo) * d;
                        vector::axpy(v, x.row(r as usize), &mut slice[base..base + d]);
                    }
                }
            })
            .collect(),
    );
}

/// Scatters non-zeros whose (mapped) output row falls in `[lo, hi)` into
/// `out` (`(hi-lo)×d`), in ascending input-row order.
fn spmm_scatter_band<T: Scalar>(
    y: &SparseMat,
    x: &Dense<T>,
    map: Option<&[u32]>,
    lo: usize,
    hi: usize,
    out: &mut [T],
) {
    let d = x.cols();
    for r in 0..y.rows() {
        let row = y.row(r);
        if row.indices.is_empty() {
            continue;
        }
        let xr = x.row(r);
        for (&c, &v) in row.indices.iter().zip(row.values) {
            let t = match map {
                Some(m) => m[c as usize] as usize,
                None => c as usize,
            };
            if t >= lo && t < hi {
                vector::axpy(T::from_f64(v), xr, &mut out[(t - lo) * d..(t - lo + 1) * d]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Seed-naive reference kernels
// ---------------------------------------------------------------------------

/// The seed's original row-axpy / dot-per-element kernels, preserved
/// verbatim (including scalar, non-unrolled inner loops). The equivalence
/// tests pin the blocked kernels to these, and the benchmark harness
/// reports speedups against them.
pub mod naive {
    use crate::dense::Mat;
    use crate::sparse::SparseMat;

    fn scalar_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    fn scalar_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Seed `Mat::matmul`: i-k-j row-axpy loop.
    pub fn matmul(a: &Mat, b: &Mat) -> Mat {
        assert_eq!(a.cols(), b.rows(), "matmul: inner dimensions differ");
        let mut out = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                scalar_axpy(a_ik, b.row(k), out_row);
            }
        }
        out
    }

    /// Seed `Mat::matmul_tn`: sum of row-wise rank-1 updates.
    pub fn matmul_tn(a: &Mat, b: &Mat) -> Mat {
        assert_eq!(a.rows(), b.rows(), "matmul_tn: row counts differ");
        let mut out = Mat::zeros(a.cols(), b.cols());
        for r in 0..a.rows() {
            let a_row = a.row(r);
            let b_row = b.row(r);
            for (i, &a_ri) in a_row.iter().enumerate() {
                if a_ri == 0.0 {
                    continue;
                }
                scalar_axpy(a_ri, b_row, out.row_mut(i));
            }
        }
        out
    }

    /// Seed `Mat::matmul_nt`: dot product per output element.
    pub fn matmul_nt(a: &Mat, b: &Mat) -> Mat {
        assert_eq!(a.cols(), b.cols(), "matmul_nt: column counts differ");
        let mut out = Mat::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            let a_row = a.row(i);
            for j in 0..b.rows() {
                out[(i, j)] = scalar_dot(a_row, b.row(j));
            }
        }
        out
    }

    /// Seed `Mat::matvec`: dot product per row.
    pub fn matvec(a: &Mat, x: &[f64]) -> Vec<f64> {
        assert_eq!(a.cols(), x.len(), "matvec: dimension mismatch");
        (0..a.rows()).map(|i| scalar_dot(a.row(i), x)).collect()
    }

    /// Seed `SparseMat::mul_dense`: axpy per non-zero.
    pub fn sparse_mul_dense(y: &SparseMat, b: &Mat) -> Mat {
        assert_eq!(y.cols(), b.rows(), "mul_dense: inner dimensions differ");
        let mut out = Mat::zeros(y.rows(), b.cols());
        for r in 0..y.rows() {
            let row = y.row(r);
            let out_row = out.row_mut(r);
            for (&c, &v) in row.indices.iter().zip(row.values) {
                scalar_axpy(v, b.row(c as usize), out_row);
            }
        }
        out
    }

    /// Seed `Mat::transpose`: element-wise, column-strided writes.
    pub fn transpose(a: &Mat) -> Mat {
        let mut t = Mat::zeros(a.cols(), a.rows());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                t[(j, i)] = a[(i, j)];
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    #[test]
    fn chunking_is_a_function_of_shape_only() {
        assert_eq!(chunk_count(10, 10), 1, "tiny products stay sequential");
        let big = chunk_count(100_000, 2_000);
        assert!(big > 1 && big <= MAX_CHUNKS);
        let ranges = row_ranges(10, 3);
        assert_eq!(ranges, vec![(0, 4), (4, 7), (7, 10)]);
    }

    #[test]
    fn large_matmul_tn_matches_naive() {
        let mut rng = Prng::seed_from_u64(42);
        // Big enough to cross the parallel threshold and exercise chunked
        // reduction.
        let a = rng.normal_mat(700, 60);
        let b = rng.normal_mat(700, 40);
        let fast = matmul_tn(&a, &b);
        let reference = naive::matmul_tn(&a, &b);
        assert!(fast.approx_eq(&reference, 1e-12));
    }

    #[test]
    fn syrk_tn_is_bitwise_naive_gram_on_any_pool() {
        let mut rng = Prng::seed_from_u64(11);
        for &(n, d) in &[(1usize, 1usize), (37, 5), (900, 48)] {
            let x = rng.normal_mat(n, d);
            let reference = naive::matmul_tn(&x, &x);
            let serial = WorkerPool::new(1);
            let wide = WorkerPool::new(7);
            for pool in [&serial, &wide, WorkerPool::global()] {
                let got = syrk_tn_with_pool(pool, &x);
                assert_eq!(got.max_abs_diff(&reference), 0.0, "syrk {n}x{d} reassociated");
            }
        }
    }

    #[test]
    fn spmm_tn_is_bitwise_naive_on_any_pool() {
        let mut rng = Prng::seed_from_u64(12);
        for &(n, dd, d) in &[(40usize, 9usize, 3usize), (600, 800, 24)] {
            let mut triplets = Vec::new();
            for _ in 0..(n * dd / 20).max(4) {
                triplets.push((rng.index(n), rng.index(dd) as u32, rng.normal()));
            }
            let y = SparseMat::from_triplets(n, dd, &triplets);
            let x = rng.normal_mat(n, d);
            // naive::matmul_tn on the densified Y accumulates each output
            // element in ascending input-row order, skipping zero entries —
            // the identical op sequence, so equality is exact.
            let reference = naive::matmul_tn(&y.to_dense(), &x);
            let serial = WorkerPool::new(1);
            let wide = WorkerPool::new(5);
            for pool in [&serial, &wide, WorkerPool::global()] {
                let got = spmm_tn_with_pool(pool, &y, &x);
                assert_eq!(got.max_abs_diff(&reference), 0.0, "spmm {n}x{dd}x{d} reassociated");
            }
        }
    }

    fn random_sparse(rng: &mut Prng, rows: usize, cols: usize, nnz: usize) -> SparseMat {
        let triplets: Vec<_> =
            (0..nnz).map(|_| (rng.index(rows), rng.index(cols) as u32, rng.normal())).collect();
        SparseMat::from_triplets(rows, cols, &triplets)
    }

    fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    fn packed_scatter_matches_full<T: Scalar>() {
        let mut rng = Prng::seed_from_u64(13);
        let (n, dd, d) = (120usize, 300usize, 8usize);
        let y = random_sparse(&mut rng, n, dd, 700);
        let x = Dense::<T>::from_f64(&rng.normal_mat(n, d));
        let full = spmm_tn(&y, &x);
        // Ascending column-support map, as the batched `YtxPartial` builds.
        let mut map = vec![u32::MAX; dd];
        let mut support: Vec<u32> = y.col_indices().to_vec();
        support.sort_unstable();
        support.dedup();
        for (i, &c) in support.iter().enumerate() {
            map[c as usize] = i as u32;
        }
        let mut slab = vec![T::ZERO; support.len() * d];
        spmm_tn_packed(&y, &x, &map, &mut slab);
        for (i, &c) in support.iter().enumerate() {
            assert_eq!(bits(&slab[i * d..(i + 1) * d]), bits(full.row(c as usize)), "packed row {c}");
        }
        // Untouched columns of the full product stay zero.
        for c in 0..dd {
            if map[c] == u32::MAX {
                assert!(full.row(c).iter().all(|&v| v == T::ZERO));
            }
        }
    }

    #[test]
    fn spmm_tn_packed_matches_full_scatter() {
        packed_scatter_matches_full::<f64>();
        packed_scatter_matches_full::<f32>();
    }

    fn kernels_are_bitwise_deterministic_across_pools<T: Scalar>() {
        let mut rng = Prng::seed_from_u64(31);
        let (n, dd, d) = (900usize, 400usize, 24usize);
        let y = random_sparse(&mut rng, n, dd, 8_000);
        let cm = Dense::<T>::from_f64(&rng.normal_mat(dd, d));
        let x = Dense::<T>::from_f64(&rng.normal_mat(n, d));
        let a = Dense::<T>::from_f64(&rng.normal_mat(n, 40));
        let b = Dense::<T>::from_f64(&rng.normal_mat(n, 32));
        let run = |pool: &WorkerPool| {
            [
                bits(sparse_mul_dense_with_pool(pool, &y, &cm).data()),
                bits(syrk_tn_with_pool(pool, &x).data()),
                bits(spmm_tn_with_pool(pool, &y, &x).data()),
                bits(matmul_tn_with_pool(pool, &a, &b).data()),
            ]
        };
        let reference = run(&WorkerPool::new(1));
        for pool in [&WorkerPool::new(2), &WorkerPool::new(8), WorkerPool::global()] {
            assert_eq!(run(pool), reference, "a {} kernel reassociated", std::any::type_name::<T>());
        }
    }

    #[test]
    fn both_precisions_are_bitwise_deterministic_across_pools() {
        kernels_are_bitwise_deterministic_across_pools::<f64>();
        kernels_are_bitwise_deterministic_across_pools::<f32>();
    }

    #[test]
    fn f32_kernels_track_the_f64_results() {
        // Not bitwise — the f32 arm's point is different arithmetic — but
        // the products must agree to f32 roundoff at these shapes.
        let mut rng = Prng::seed_from_u64(32);
        let (n, dd, d) = (300usize, 200usize, 12usize);
        let y = random_sparse(&mut rng, n, dd, 3_000);
        let pool = WorkerPool::new(4);
        let within = |narrow: Dense<f32>, exact: Mat, tol: f64, what: &str| {
            let scale = exact.data().iter().fold(1.0f64, |m, v| m.max(v.abs()));
            let diff = narrow.widen().max_abs_diff(&exact);
            assert!(diff <= tol * scale, "f32 {what} drifted by {diff:.3e}");
        };
        let cm = rng.normal_mat(dd, d);
        within(
            sparse_mul_dense_with_pool(&pool, &y, &Dense::from_f64(&cm)),
            sparse_mul_dense_with_pool(&pool, &y, &cm),
            1e-4,
            "sparse_mul_dense",
        );
        let x = rng.normal_mat(n, d);
        within(syrk_tn_with_pool(&pool, &Dense::from_f64(&x)), syrk_tn_with_pool(&pool, &x), 1e-3, "syrk_tn");
        let a = rng.normal_mat(n, 17); // odd widths exercise remainders
        let b = rng.normal_mat(n, 19);
        within(
            matmul_tn_with_pool(&pool, &Dense::from_f64(&a), &Dense::from_f64(&b)),
            matmul_tn_with_pool(&pool, &a, &b),
            1e-3,
            "matmul_tn",
        );
    }

    /// Integer-valued matrix in [-4, 4]: every product and partial sum of
    /// the shapes below is an integer exactly representable in `f32`.
    fn int_mat(rng: &mut Prng, rows: usize, cols: usize) -> Mat {
        Mat::from_fn(rows, cols, |_, _| rng.index(9) as f64 - 4.0)
    }

    /// Runs one chunk kernel over all rows of `a`, `b` into a zeroed output.
    fn chunk<T: Scalar>(
        kernel: impl Fn(&Dense<T>, &Dense<T>, usize, usize, &mut [T]),
        a: &Mat,
        b: &Mat,
    ) -> Mat {
        let (a, b) = (Dense::<T>::from_f64(a), Dense::<T>::from_f64(b));
        let mut out = Dense::<T>::zeros(a.cols(), b.cols());
        kernel(&a, &b, 0, a.rows(), out.data_mut());
        out.widen()
    }

    fn portable_path_matches_naive_and_avx512<T: Scalar>() {
        let mut rng = Prng::seed_from_u64(17);
        // Full register tiles plus row and column remainders for both
        // tile geometries, and (for AVX-512) every fused-group width.
        for &(rows, acols, bcols) in &[(37usize, 19usize, 37usize), (50, 12, 70), (5, 3, 2)] {
            let (a, b) = (int_mat(&mut rng, rows, acols), int_mat(&mut rng, rows, bcols));
            let portable = chunk::<T>(T::tn_rows_portable, &a, &b);
            let reference = naive::matmul_tn(&a, &b);
            assert_eq!(bits(portable.data()), bits(reference.data()), "portable vs naive {rows}x{acols}x{bcols}");
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: avx512f was just detected and `chunk` passes the
                // full row range of both operands with a full-size output.
                let avx = chunk::<T>(|a, b, s, e, o| unsafe { matmul_tn_rows_avx512(a, b, s, e, o) }, &a, &b);
                assert_eq!(bits(portable.data()), bits(avx.data()), "portable vs avx512 {rows}x{acols}x{bcols}");
            }
        }
    }

    #[test]
    fn portable_matmul_tn_path_is_exact_and_matches_avx512_on_integers() {
        portable_path_matches_naive_and_avx512::<f64>();
        portable_path_matches_naive_and_avx512::<f32>();
        // Random f64 inputs: separate roundings in ascending-row order,
        // within reassociation noise of the naive loop.
        let mut rng = Prng::seed_from_u64(18);
        let (a, b) = (rng.normal_mat(300, 19), rng.normal_mat(300, 37));
        let portable = chunk::<f64>(f64::tn_rows_portable, &a, &b);
        assert!(portable.approx_eq(&naive::matmul_tn(&a, &b), 1e-12));
    }

    #[test]
    fn nnz_ranges_balance_skewed_rows() {
        // Row 0 holds almost all the non-zeros; an equal-row split would
        // put ~all work in chunk 0.
        let mut entries = vec![Vec::new(); 100];
        entries[0] = (0..900u32).map(|c| (c, 1.0)).collect();
        for (r, row) in entries.iter_mut().enumerate().skip(1) {
            row.push((r as u32, 1.0));
        }
        let y = SparseMat::from_rows(100, 1000, entries);
        let ranges = nnz_ranges(&y, 4);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges[3].1, 100);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges tile the rows");
        }
        // The hot row is alone in its chunk: everything else spreads out.
        assert_eq!(ranges[0], (0, 1), "hot row isolated: {ranges:?}");
        // Uniform matrices still split near-equally by rows.
        let uniform = SparseMat::from_rows(
            12,
            4,
            (0..12).map(|_| vec![(0u32, 1.0), (2, 1.0)]).collect(),
        );
        assert_eq!(nnz_ranges(&uniform, 3), vec![(0, 4), (4, 8), (8, 12)]);
    }

    #[test]
    fn sparse_mul_dense_is_bitwise_naive_on_any_pool() {
        // Skewed sparsity exercises the nnz-balanced split; every output
        // row is computed by one task in scan order, so all pools (and
        // the naive reference) agree bitwise.
        let mut rng = Prng::seed_from_u64(15);
        let (n, dd, d) = (600usize, 500usize, 24usize);
        let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for (r, row) in entries.iter_mut().enumerate() {
            // Power-law-ish: early rows are much denser.
            let nnz = (400 / (r + 1)).max(2);
            let mut cols: Vec<u32> = (0..nnz).map(|_| rng.index(dd) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            *row = cols.into_iter().map(|c| (c, rng.normal())).collect();
        }
        let y = SparseMat::from_rows(n, dd, entries);
        let b = rng.normal_mat(dd, d);
        let reference = naive::sparse_mul_dense(&y, &b);
        let serial = WorkerPool::new(1);
        let two = WorkerPool::new(2);
        let wide = WorkerPool::new(8);
        for pool in [&serial, &two, &wide, WorkerPool::global()] {
            let got = sparse_mul_dense_with_pool(pool, &y, &b);
            assert_eq!(got.max_abs_diff(&reference), 0.0, "sparse_mul_dense reassociated");
        }
    }

    #[test]
    fn sparse_mul_dense_into_reuses_buffer_exactly() {
        let mut rng = Prng::seed_from_u64(14);
        let (n, dd, d) = (50usize, 40usize, 6usize);
        let mut triplets = Vec::new();
        for _ in 0..200 {
            triplets.push((rng.index(n), rng.index(dd) as u32, rng.normal()));
        }
        let y = SparseMat::from_triplets(n, dd, &triplets);
        let b = rng.normal_mat(dd, d);
        let fresh = sparse_mul_dense(&y, &b);
        let mut buf = vec![7.0; n * d]; // stale garbage the caller must clear
        buf.clear();
        buf.resize(n * d, 0.0);
        sparse_mul_dense_into(&y, &b, &mut buf);
        assert_eq!(buf, fresh.data());
    }

    #[test]
    fn remainder_rows_are_handled() {
        // 5 rows: one group of 4 plus a remainder row; 3 cols: nt remainder.
        let mut rng = Prng::seed_from_u64(7);
        let a = rng.normal_mat(5, 3);
        let b = rng.normal_mat(3, 5);
        assert!(matmul(&a, &b).approx_eq(&naive::matmul(&a, &b), 1e-13));
        let c = rng.normal_mat(5, 3);
        assert!(matmul_nt(&a, &c).approx_eq(&naive::matmul_nt(&a, &c), 1e-13));
    }
}
