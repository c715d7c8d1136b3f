//! End-to-end tests of the evaluation pipeline itself: the accuracy
//! metric, the percent-of-ideal scale, stop conditions, and model
//! persistence through a full distributed fit.

use dcluster::{ClusterConfig, SimCluster};
use linalg::{Prng, SparseMat};
use spca_core::model::PcaModel;
use spca_core::{accuracy, Spca, SpcaConfig};

fn dataset() -> SparseMat {
    let mut rng = Prng::seed_from_u64(606);
    let spec = datasets::LowRankSpec {
        rows: 1_500,
        cols: 300,
        topics: 5,
        words_per_row: 10.0,
        topic_affinity: 0.85,
        zipf_exponent: 1.0,
    };
    datasets::sparse_lowrank(&spec, &mut rng)
}

#[test]
fn error_decreases_and_percent_increases_over_iterations() {
    let y = dataset();
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = Spca::new(SpcaConfig::new(5).with_max_iters(12).with_rel_tolerance(None))
        .fit_spark(&cluster, &y)
        .unwrap();
    let ideal = run.final_error();

    let first = run.iterations.first().unwrap();
    let last = run.iterations.last().unwrap();
    assert!(last.error <= first.error, "error must improve overall");

    let p_first = accuracy::percent_of_ideal(first.error, ideal);
    let p_last = accuracy::percent_of_ideal(last.error, ideal);
    assert!(p_last >= p_first);
    assert!((p_last - 100.0).abs() < 1e-9, "final iteration defines ideal here");
}

#[test]
fn target_error_stop_halts_early() {
    let y = dataset();

    // Reference run to learn the achievable error.
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let full = Spca::new(SpcaConfig::new(5).with_max_iters(12).with_rel_tolerance(None))
        .fit_spark(&cluster, &y)
        .unwrap();
    let ideal = full.final_error();
    let target = accuracy::target_error_for(ideal, 90.0);

    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let early = Spca::new(
        SpcaConfig::new(5)
            .with_max_iters(12)
            .with_rel_tolerance(None)
            .with_target_error(target),
    )
    .fit_spark(&cluster, &y)
    .unwrap();

    assert!(early.iterations.len() < full.iterations.len(), "target stop must cut iterations");
    assert!(early.final_error() <= target);
    assert!(early.time_to_error(target).is_some());
}

#[test]
fn rel_tolerance_stop_halts_on_plateau() {
    let y = dataset();
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = Spca::new(SpcaConfig::new(5).with_max_iters(30).with_rel_tolerance(Some(1e-2)))
        .fit_spark(&cluster, &y)
        .unwrap();
    assert!(
        run.iterations.len() < 30,
        "1% relative tolerance should stop well before 30 iterations (got {})",
        run.iterations.len()
    );
}

#[test]
fn fitted_model_survives_text_roundtrip() {
    let y = dataset();
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = Spca::new(SpcaConfig::new(4).with_max_iters(4))
        .fit_spark(&cluster, &y)
        .unwrap();

    let restored = PcaModel::from_text(&run.model.to_text()).unwrap();
    // The restored model must score identically on the same sample.
    let sample = accuracy::sample_rows(&y, 128, 42);
    let e1 = accuracy::reconstruction_error(&sample, &run.model).unwrap();
    let e2 = accuracy::reconstruction_error(&sample, &restored).unwrap();
    assert!((e1 - e2).abs() < 1e-9, "persisted model scores differently: {e1} vs {e2}");
}

#[test]
fn transform_reconstruct_shapes_compose() {
    let y = dataset();
    let cluster = SimCluster::new(ClusterConfig::paper_cluster());
    let run = Spca::new(SpcaConfig::new(6).with_max_iters(4))
        .fit_spark(&cluster, &y)
        .unwrap();
    let x = run.model.transform_sparse(&y).unwrap();
    assert_eq!((x.rows(), x.cols()), (y.rows(), 6));
    let back = run.model.reconstruct(&x).unwrap();
    assert_eq!((back.rows(), back.cols()), (y.rows(), y.cols()));
}

#[test]
fn error_sample_is_stable_across_engines() {
    // Spark and MapReduce runs with the same seed must evaluate error on
    // the same sampled rows — otherwise their accuracy curves are not
    // comparable.
    let y = dataset();
    let config = SpcaConfig::new(4).with_max_iters(2).with_rel_tolerance(None).with_seed(11);
    let c1 = SimCluster::new(ClusterConfig::paper_cluster());
    let spark = Spca::new(config.clone()).fit_spark(&c1, &y).unwrap();
    let c2 = SimCluster::new(ClusterConfig::paper_cluster());
    let mr = Spca::new(config).fit_mapreduce(&c2, &y).unwrap();
    for (a, b) in spark.iterations.iter().zip(&mr.iterations) {
        assert!((a.error - b.error).abs() < 1e-9, "iteration errors diverged");
    }
}
