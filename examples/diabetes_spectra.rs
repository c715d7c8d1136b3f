//! NMR spectra analysis — the paper's Diabetes dataset scenario: 353
//! patients, tens of thousands of resonance frequencies, real-valued
//! magnitudes. Classic "short and wide" PCA.
//!
//! Demonstrates three things on the spectra replica:
//! 1. the latent metabolic factors are recovered (variance explained);
//! 2. PPCA's missing-value EM imputes corrupted spectra (Section 2.4's
//!    first PPCA advantage);
//! 3. a mixture of PPCA models separates two patient cohorts
//!    (Section 2.4's second advantage).
//!
//! ```text
//! cargo run --release --example diabetes_spectra
//! ```

use spca_repro::prelude::*;
use spca_repro::spca_core::{missing, mixture::MixtureOfPpca};

fn main() {
    let mut rng = Prng::seed_from_u64(31);
    let spectra = diabetes::generate(353, 4_000, &mut rng);
    let y = linalg::SparseMat::from_dense(&spectra);
    println!("spectra: {} patients x {} frequencies", y.rows(), y.cols());

    // ---- 1. Distributed PCA on the wide matrix. ---------------------------
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = Spca::new(SpcaConfig::new(8).with_max_iters(12).with_seed(3))
        .fit_spark(&cluster, &y)
        .expect("fit");
    let x = run.model.transform_sparse(&y).expect("project");
    let recon = run.model.reconstruct(&x).expect("reconstruct");
    let rel = spca_repro::linalg::norms::diff_norm1(&spectra, &recon) / spectra.norm1();
    println!(
        "\n8 components reconstruct the spectra to {:.2}% relative L1 error",
        100.0 * rel
    );
    println!("(simulated fit: {:.1} s on an 8-node cluster)", run.virtual_time_secs);

    // ---- 2. Missing-value EM: corrupt 15% of a small cohort, impute. ------
    let cohort = spectra.row_block(0, 80);
    let mut masked = cohort.clone();
    let mut holes = 0;
    for r in 0..masked.rows() {
        for j in 0..masked.cols() {
            if rng.uniform() < 0.15 {
                masked[(r, j)] = f64::NAN;
                holes += 1;
            }
        }
    }
    let model = missing::fit_missing(&masked, 6, 15, 11).expect("missing-value EM");
    let imputed = missing::impute(&masked, &model).expect("imputation");
    let mut err = 0.0;
    let mut base = 0.0;
    for r in 0..cohort.rows() {
        for j in 0..cohort.cols() {
            if masked[(r, j)].is_nan() {
                err += (imputed[(r, j)] - cohort[(r, j)]).abs();
                base += cohort[(r, j)].abs();
            }
        }
    }
    println!(
        "\nmissing-value EM: imputed {holes} held-out entries at {:.2}% relative error",
        100.0 * err / base
    );

    // ---- 3. Mixture of PPCA: separate two synthetic cohorts. --------------
    // Second cohort: same machine, systematically shifted baseline.
    let mut rng2 = Prng::seed_from_u64(99);
    let mut cohort_b = diabetes::generate(80, 500, &mut rng2);
    for v in cohort_b.data_mut() {
        *v += 1.5;
    }
    let mut rng3 = Prng::seed_from_u64(31);
    let cohort_a = diabetes::generate(80, 500, &mut rng3);
    let stacked = linalg::Mat::vcat(&[cohort_a, cohort_b]);
    let mix = MixtureOfPpca::fit(&stacked, 2, 3, 20, 17).expect("mixture fit");
    let assign = mix.assign(&stacked).expect("assignment");
    let first_half_label = assign[..80].iter().filter(|&&a| a == assign[0]).count();
    let second_half_other = assign[80..].iter().filter(|&&a| a != assign[0]).count();
    println!(
        "\nmixture of PPCA: cohort A consistency {}/80, cohort B separation {}/80 \
         (weights {:.2}/{:.2})",
        first_half_label, second_half_other, mix.weights[0], mix.weights[1]
    );
}
