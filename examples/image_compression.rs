//! Dimensionality reduction of dense image features — the paper's
//! compression/k-means motivation: "since matrix X is much smaller than
//! the original matrix Y, it can be used as input to other machine
//! learning algorithms such as k-means clustering".
//!
//! Fits PCA on SIFT-like 128-dimensional descriptors, sweeps the retained
//! component count, and reports the compression/error trade-off. Also
//! demonstrates model persistence (save/load of the fitted model).
//!
//! ```text
//! cargo run --release --example image_compression
//! ```

use spca_repro::prelude::*;
use spca_repro::spca_core::model::PcaModel;

fn main() {
    let mut rng = Prng::seed_from_u64(77);
    let features = images::generate(20_000, images::SIFT_DIM, &mut rng);
    let y = linalg::SparseMat::from_dense(&features);
    println!("features: {} descriptors x {} dims (dense)", y.rows(), y.cols());

    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    println!("\n d | stored floats | compression | rel. L1 error | fit time (sim s)");
    println!("---+---------------+-------------+---------------+-----------------");
    let mut best: Option<PcaModel> = None;
    for d in [4usize, 8, 16, 32] {
        let run = Spca::new(SpcaConfig::new(d).with_max_iters(8).with_seed(5))
            .fit_spark(&cluster, &y)
            .expect("fit");
        let x = run.model.transform_sparse(&y).expect("project");
        let recon = run.model.reconstruct(&x).expect("reconstruct");
        let rel = spca_repro::linalg::norms::diff_norm1(&features, &recon) / features.norm1();

        let original = y.rows() * y.cols();
        let compressed = y.rows() * d + y.cols() * d + y.cols();
        println!(
            "{d:>2} | {compressed:>13} | {:>10.1}x | {rel:>13.4} | {:>15.1}",
            original as f64 / compressed as f64,
            run.virtual_time_secs
        );
        best = Some(run.model);
    }

    // Persist the last model and read it back.
    let model = best.expect("at least one model fitted");
    let text = model.to_text();
    let restored = PcaModel::from_text(&text).expect("parse persisted model");
    assert!(restored.components().approx_eq(model.components(), 1e-12));
    println!(
        "\npersisted and restored the d={} model ({} bytes of text)",
        model.output_dim(),
        text.len()
    );
}
