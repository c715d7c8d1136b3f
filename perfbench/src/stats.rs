//! The benchmark's derived quantities: every number it reports that is
//! computed from other measurements rather than read off a clock or a
//! meter. Kept free of I/O so each rule has a unit test.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`
/// (the `ceil(p/100 · n)`-th smallest, as `dcluster::jobs::percentile`
/// picks it). A hair of slack keeps a product that is an integer in exact
/// arithmetic (99.9% of 10,000) from rounding up.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize;
    n - rank.min(n)
}

/// Tail percentiles the benchmark may quote, highest last.
const TAIL_LADDER: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// The highest tail percentile that `n` samples support: one with at
/// least ten samples beyond it. `None` when even p90 is unsupported, in
/// which case only the median may be quoted.
pub fn supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// How a timing over `n` samples may be quoted, for the run log.
pub fn quotable(n: usize) -> String {
    match supported_percentile(n) {
        Some(p) => format!("n={n}, supports up to p{p}"),
        None => format!("n={n}, median only"),
    }
}

/// Share of attempted operations that failed. A failed fit (one that
/// returned `Err`), a rejected serving batch and a rejected fit job all
/// count once.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    assert!(attempted > 0, "no operation attempted");
    assert!(
        failed <= attempted,
        "more failures ({failed}) than attempts ({attempted})"
    );
    failed as f64 / attempted as f64
}

/// Share of attempted operations that succeeded: `1 − failed_frac`, the
/// form the benchmark reports so that the metric is never zero.
pub fn ok_frac(attempted: u64, failed: u64) -> f64 {
    1.0 - failed_frac(attempted, failed)
}

/// Host worker-pool utilisation: summed stage task seconds over the
/// wall-seconds × workers the fit had available.
pub fn pool_util(task_s: f64, host_s: f64, workers: usize) -> f64 {
    if host_s <= 0.0 || workers == 0 {
        return 0.0;
    }
    task_s / (host_s * workers as f64)
}

/// Host seconds the contended simulation core adds to a fit: the median
/// contended fit minus the median of the same fit under uncontended
/// timing. Negative values are reported as measured (noise, not work).
pub fn sim_host_s(contended: &[f64], uncontended: &[f64]) -> f64 {
    median(contended) - median(uncontended)
}

/// Relative cost of tracing: median traced rep over median untraced rep,
/// minus one.
pub fn trace_overhead_frac(traced: &[f64], untraced: &[f64]) -> f64 {
    median(traced) / median(untraced) - 1.0
}

/// `a / b`, or zero when the denominator is zero (a layer that did no
/// work has no rate).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
