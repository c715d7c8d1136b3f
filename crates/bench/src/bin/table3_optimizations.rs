//! Table 3 — effect of the individual optimizations (Section 5.4).
//!
//! Each of sPCA's three core optimizations is exercised with and without,
//! on the same operation it accelerates, on a Tweets-like subset (the
//! paper used a 100K-row Tweets subset):
//!
//! 1. **Mean propagation** (line 7: computing X) — sparse `y·CM − Xm` vs
//!    materializing each dense centered row.
//! 2. **Minimizing intermediate data** (line 8: XtX/YtX) — recompute X on
//!    demand inside one consolidated job vs materialize X, ship it
//!    through the DFS, and read it back in each consuming job.
//! 3. **Frobenius norm** (line 13's ss1) — Algorithm 3 vs Algorithm 2.
//!
//! Expect order-of-magnitude gaps whose absolute size grows with scale
//! (the paper's 100K-row numbers: 2 s vs 5,400 s; 3 s vs 2,640 s; 0.4 s
//! vs 102 s). The three arms are `spca_core::ablation`'s, run here on
//! fresh scaled clusters with 16 partitions and init seed 7.

use spca_bench::{data, fmt_bytes, fresh_cluster, Table, D_COMPONENTS};
use spca_core::ablation::{self, AblationResult};

/// Sub-second precision: the optimized arms finish in milliseconds.
fn fmt_secs(secs: f64) -> String {
    if secs < 1.0 {
        format!("{secs:.3}")
    } else {
        spca_bench::fmt_secs(secs)
    }
}

fn row(table: &mut Table, name: &str, r: &AblationResult) {
    table.row(&[
        name.into(),
        fmt_secs(r.with_secs),
        fmt_secs(r.without_secs),
        format!("{:.0}x", r.speedup()),
    ]);
}

fn main() {
    let _trace = spca_bench::cli::trace_args("table3_optimizations", "Table 3: per-optimization ablation", &[]);
    println!("=== Table 3: per-optimization ablation (virtual seconds) ===\n");
    let y = data::tweets(100_000, 2_000, 1);
    let (partitions, seed) = (16, 7);
    let mut table = Table::new(&["Optimization", "With (s)", "Without (s)", "Speedup"]);

    let r = ablation::mean_propagation(fresh_cluster, &y, D_COMPONENTS, partitions, seed)
        .expect("mean-propagation ablation");
    row(&mut table, "Mean propagation", &r);

    let r = ablation::intermediate_data(fresh_cluster, &y, D_COMPONENTS, partitions, seed)
        .expect("intermediate-data ablation");
    row(&mut table, "Minimize intermediate data", &r);
    println!(
        "intermediate bytes for the XtX pipeline: consolidated {} vs materialized-X {}\n",
        fmt_bytes(r.with_bytes),
        fmt_bytes(r.without_bytes)
    );

    let r = ablation::frobenius_norm(fresh_cluster, &y, partitions).expect("Frobenius ablation");
    row(&mut table, "Frobenius norm", &r);

    table.print();
    println!("\n(paper, 100K-row Tweets subset at full 71.5K dimensionality:");
    println!(" mean propagation 2 s vs 5,400 s; intermediate data 3 s vs 2,640 s;");
    println!(" Frobenius 0.4 s vs 102 s — gaps grow with scale)");
}
