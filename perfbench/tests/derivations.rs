//! The benchmark's derived numbers, and `BENCHMARK.json` against the
//! metric tables the binary prints from.

use obs::json::{self, Json};
use perfbench::stats::*;
use perfbench::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
}

#[test]
#[should_panic(expected = "median of no samples")]
fn median_needs_a_sample() {
    median(&[]);
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    // The serving mix's 10,400 batches support p99.9 (10 beyond) and so p99.
    assert_eq!(samples_beyond(10_400, 99.9), 10);
    assert_eq!(samples_beyond(10_400, 99.0), 104);
    assert_eq!(supported_percentile(10_400), Some(99.9));
    assert_eq!(supported_percentile(10_000), Some(99.9));
    assert_eq!(supported_percentile(9_999), Some(99.0));
    assert_eq!(supported_percentile(1_000), Some(99.0));
    assert_eq!(supported_percentile(999), Some(95.0));
    assert_eq!(supported_percentile(200), Some(95.0));
    assert_eq!(supported_percentile(199), Some(90.0));
    assert_eq!(supported_percentile(100), Some(90.0));
    // A run's handful of fit reps, or four light-tenant waits: median only.
    assert_eq!(supported_percentile(99), None);
    assert_eq!(supported_percentile(4), None);
    assert_eq!(supported_percentile(0), None);
    assert_eq!(quotable(10_400), "n=10400, supports up to p99.9");
    assert_eq!(quotable(4), "n=4, median only");
}

#[test]
fn samples_beyond_matches_the_programs_nearest_rank() {
    // `dcluster::jobs::percentile` returns the sample whose 1-based rank
    // leaves exactly `samples_beyond` samples above it.
    for n in [1usize, 4, 9, 10, 99, 100, 1_000, 10_400] {
        let sorted: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        for p in [50.0, 90.0, 95.0, 99.0] {
            let value = dcluster::jobs::percentile(&sorted, p);
            assert_eq!(n - value as usize, samples_beyond(n, p), "n={n} p={p}");
        }
    }
}

#[test]
fn failed_frac_counts_every_failed_operation_once() {
    // Fits: one operation each.
    assert_eq!(failed_frac(6, 0), 0.0);
    assert_eq!(failed_frac(4, 1), 0.25);
    // Serving: 14 fit jobs + 10,400 batches per mix; one rejected job
    // plus two rejected batches.
    let attempted = 14 + 10_400;
    assert_eq!(failed_frac(attempted, 1 + 2), 3.0 / 10_414.0);
    assert_eq!(ok_frac(attempted, 3), 1.0 - 3.0 / 10_414.0);
    assert_eq!(ok_frac(6, 0), 1.0);
    assert_eq!(ok_frac(5, 5), 0.0);
}

#[test]
#[should_panic(expected = "no operation attempted")]
fn failed_frac_needs_an_attempt() {
    failed_frac(0, 0);
}

#[test]
#[should_panic(expected = "more failures")]
fn failed_frac_rejects_more_failures_than_attempts() {
    failed_frac(2, 3);
}

#[test]
fn pool_util_is_task_seconds_over_available_worker_seconds() {
    assert_eq!(pool_util(1.0, 1.0, 2), 0.5);
    assert_eq!(pool_util(0.54, 0.78, 2), 0.54 / 1.56);
    assert_eq!(
        pool_util(3.0, 1.0, 2),
        1.5,
        "reported as measured, not clamped"
    );
    assert_eq!(pool_util(1.0, 0.0, 2), 0.0);
    assert_eq!(pool_util(1.0, 1.0, 0), 0.0);
}

#[test]
fn sim_host_s_is_contended_minus_uncontended_median() {
    assert_eq!(sim_host_s(&[1.5, 1.6, 1.4], &[0.2, 0.3, 0.1]), 1.5 - 0.2);
    assert_eq!(sim_host_s(&[1.0, 2.0], &[0.5]), 1.0);
    // Noise can make the difference negative; it is not clamped.
    assert!(sim_host_s(&[0.19], &[0.2]) < 0.0);
}

#[test]
fn trace_overhead_and_ratios() {
    assert!((trace_overhead_frac(&[1.1, 1.3, 1.2], &[1.0, 0.9, 1.1]) - 0.2).abs() < 1e-12);
    assert_eq!(ratio(3.0, 2.0), 1.5);
    assert_eq!(ratio(3.0, 0.0), 0.0);
}

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    match spec.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing {key}"))
}

fn assert_lists(spec: &Json, key: &str, table: &[Metric]) {
    let listed: Vec<(&str, &str, &str)> = entries(spec, key)
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect();
    let printed: Vec<(&str, &str, &str)> =
        table.iter().map(|m| (m.name, m.unit, m.better)).collect();
    assert_eq!(
        listed, printed,
        "BENCHMARK.json {key} must match what the benchmark prints"
    );
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let spec = spec();
    assert_lists(&spec, "end_to_end", END_TO_END);
    assert_lists(&spec, "per_layer", PER_LAYER);
    let workloads: Vec<&str> = entries(&spec, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn setup_s_has_the_largest_bound() {
    let spec = spec();
    let bounds: Vec<(&str, f64)> = entries(&spec, "end_to_end")
        .iter()
        .map(|e| {
            (
                field(e, "name"),
                e.get("bound").and_then(Json::as_num).expect("bound"),
            )
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| *n == "setup_s")
        .expect("setup_s listed")
        .1;
    for (name, bound) in &bounds {
        assert!(
            *bound > 0.0 && *bound <= 0.25,
            "{name} bound {bound} out of range"
        );
        assert!(
            *bound <= setup,
            "{name} bound {bound} exceeds setup_s's {setup}"
        );
    }
}
