//! End-to-end tests of the `spca-cli` binary: generate → info → fit →
//! transform → likelihood, through real files.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spca-cli"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spca-cli-test-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline_roundtrip() {
    let dir = workdir("pipeline");
    let data = dir.join("data.sm");
    let model = dir.join("model.txt");
    let latent = dir.join("latent.dm");

    // generate
    let out = cli()
        .args(["generate", "tweets", "800", "300", "--seed", "5", "-o"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("800 x 300"));

    // info
    let out = cli().args(["info", "-i"]).arg(&data).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("rows     : 800"));
    assert!(text.contains("columns  : 300"));

    // fit
    let out = cli()
        .args(["fit", "-d", "4", "--iters", "3", "--engine", "spark", "-i"])
        .arg(&data)
        .arg("-o")
        .arg(&model)
        .output()
        .unwrap();
    assert!(out.status.success(), "fit failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());

    // transform
    let out = cli()
        .args(["transform", "-i"])
        .arg(&data)
        .arg("-m")
        .arg(&model)
        .arg("-o")
        .arg(&latent)
        .output()
        .unwrap();
    assert!(out.status.success());
    let x = linalg::io::load_dense(&latent).unwrap();
    assert_eq!((x.rows(), x.cols()), (800, 4));

    // likelihood
    let out = cli()
        .args(["likelihood", "-i"])
        .arg(&data)
        .arg("-m")
        .arg(&model)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("log-likelihood"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fit_is_reproducible_across_invocations() {
    let dir = workdir("repro");
    let data = dir.join("data.sm");
    let m1 = dir.join("m1.txt");
    let m2 = dir.join("m2.txt");

    assert!(cli()
        .args(["generate", "lowrank", "400", "120", "--seed", "9", "-o"])
        .arg(&data)
        .status()
        .unwrap()
        .success());
    for m in [&m1, &m2] {
        assert!(cli()
            .args(["fit", "-d", "3", "--iters", "2", "--seed", "17", "-i"])
            .arg(&data)
            .arg("-o")
            .arg(m)
            .status()
            .unwrap()
            .success());
    }
    assert_eq!(
        std::fs::read_to_string(&m1).unwrap(),
        std::fs::read_to_string(&m2).unwrap(),
        "same seed must produce byte-identical models"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_replays_a_deterministic_multi_tenant_mix() {
    let dir = workdir("serve");
    let data = dir.join("data.sm");
    let model = dir.join("model.txt");

    assert!(cli()
        .args(["generate", "lowrank", "300", "80", "--seed", "4", "-o"])
        .arg(&data)
        .status()
        .unwrap()
        .success());
    assert!(cli()
        .args(["fit", "-d", "3", "--iters", "2", "-i"])
        .arg(&data)
        .arg("-o")
        .arg(&model)
        .status()
        .unwrap()
        .success());

    let run = || {
        let out = cli()
            .args([
                "serve", "--tenants", "2", "--batches", "30", "--batch-rows", "4",
                "--fit-jobs", "1", "--policy", "fifo", "-i",
            ])
            .arg(&data)
            .arg("-m")
            .arg(&model)
            .output()
            .unwrap();
        assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let text = run();
    assert!(text.contains("served 240 requests in 60 batches"), "got:\n{text}");
    assert!(text.contains("trace hash"));
    assert_eq!(text, run(), "a seeded serve replay must be byte-identical");

    // An unknown policy is a usage error, not a panic.
    let out = cli()
        .args(["serve", "--policy", "lifo", "-i"])
        .arg(&data)
        .arg("-m")
        .arg(&model)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors_on_bad_usage() {
    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("unknown command"));
    assert!(err.contains("usage:"), "should print usage on error");

    let out = cli().args(["fit", "-i", "/nonexistent/file.sm", "-o", "/tmp/x"]).output().unwrap();
    assert!(!out.status.success());
}

/// Runs `spca-cli` expecting a clean failure: non-zero exit, no panic, and
/// an `error:` line mentioning every one of `needles`.
fn expect_typed_error(args: &[&str], needles: &[&str]) {
    let out = cli().args(args).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(!out.status.success(), "{args:?} must fail");
    assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
    let line = err.lines().next().unwrap_or_default();
    assert!(line.starts_with("error: "), "{args:?}: {err}");
    for needle in needles {
        assert!(line.contains(needle), "{args:?}: {line:?} lacks {needle:?}");
    }
}

/// Generates a 200-row tweets-like matrix with `cols` columns into
/// `dir/name` and returns its path.
fn generate(dir: &std::path::Path, name: &str, cols: &str) -> String {
    let data = dir.join(name).to_str().unwrap().to_string();
    let out = cli().args(["generate", "tweets", "200", cols, "--seed", "3", "-o", &data]).output();
    assert!(out.unwrap().status.success());
    data
}

#[test]
fn zero_components_is_a_config_error_not_a_panic() {
    let dir = workdir("zero-d");
    let data = generate(&dir, "data.sm", "40");
    let model = dir.join("model.txt");
    let fit = ["fit", "-d", "0", "-i", &data, "-o", model.to_str().unwrap()];
    expect_typed_error(&fit, &["invalid fit config", "component"]);
    assert!(!model.exists(), "a rejected fit must not write a model");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_iterations_is_a_config_error_not_a_panic() {
    let dir = workdir("zero-iters");
    let data = generate(&dir, "data.sm", "40");
    let model = dir.join("model.txt");
    let fit = ["fit", "-d", "2", "--iters", "0", "-i", &data, "-o", model.to_str().unwrap()];
    expect_typed_error(&fit, &["invalid fit config", "max_iters"]);
    assert!(!model.exists(), "a rejected fit must not write a model");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_partitions_is_a_config_error_not_a_panic() {
    let dir = workdir("zero-partitions");
    let data = generate(&dir, "data.sm", "40");
    let model = dir.join("model.txt");
    for engine in ["spark", "mapreduce"] {
        let fit = [
            "fit",
            "--partitions",
            "0",
            "--engine",
            engine,
            "-i",
            &data,
            "-o",
            model.to_str().unwrap(),
        ];
        expect_typed_error(&fit, &["invalid fit config", "partition"]);
    }
    assert!(!model.exists(), "a rejected fit must not write a model");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_width_mismatch_is_a_typed_error_not_a_panic() {
    let dir = workdir("width-mismatch");
    let wide = generate(&dir, "wide.sm", "40");
    let narrow = generate(&dir, "narrow.sm", "30");
    let model = dir.join("model.txt").to_str().unwrap().to_string();
    let latent = dir.join("latent.dm");
    let out = cli().args(["fit", "-d", "2", "--iters", "2", "-i", &wide, "-o", &model]).output();
    let out = out.unwrap();
    assert!(out.status.success(), "fit failed: {}", String::from_utf8_lossy(&out.stderr));

    let transform = ["transform", "-i", &narrow, "-m", &model, "-o", latent.to_str().unwrap()];
    expect_typed_error(&transform, &["30 columns", "expects 40"]);
    assert!(!latent.exists(), "a rejected transform must not write output");
    expect_typed_error(&["likelihood", "-i", &narrow, "-m", &model], &["30 columns", "expects 40"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_finite_input_is_a_read_error_not_a_nan_model() {
    let dir = workdir("non-finite");
    let model = dir.join("model.txt");
    for tok in ["NaN", "inf"] {
        let data = dir.join(format!("{tok}.sm")).to_str().unwrap().to_string();
        let text = format!("spca-sparse 3 2 4\n0 0 1.0\n1 1 2.0\n2 0 {tok}\n2 1 0.5\n");
        std::fs::write(&data, text).unwrap();
        let fit = ["fit", "-d", "1", "--iters", "2", "-i", &data, "-o", model.to_str().unwrap()];
        expect_typed_error(&fit, &[&data, "line 4", "non-finite"]);
        assert!(!model.exists(), "a rejected input must not write a model");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overflowing_fit_is_a_divergence_error_not_a_nan_model() {
    // Every value is finite, so ingestion accepts the file, but 1e200² is
    // not: the fit's arithmetic overflows in its first pass.
    let dir = workdir("diverged");
    let data = dir.join("big.sm").to_str().unwrap().to_string();
    let model = dir.join("model.txt");
    let out = cli().args(["generate", "lowrank", "300", "60", "--seed", "3", "-o", &data]).output();
    assert!(out.unwrap().status.success());
    let text = std::fs::read_to_string(&data).unwrap();
    std::fs::write(&data, text.replace(" 1e0\n", " 1e200\n")).unwrap();
    let fit = ["fit", "-i", &data, "-o", model.to_str().unwrap(), "-d", "3", "--iters", "4"];
    expect_typed_error(&fit, &["diverged", "pass 1"]);
    assert!(!model.exists(), "a diverged fit must not write a model");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_variance_input_fits_a_finite_model() {
    // Zero total variance makes EM's objective -inf by definition; that is
    // no divergence, and the fit must still succeed.
    let dir = workdir("zero-variance");
    let model = dir.join("model.txt");
    let constant: String = (0..20).map(|r| format!("{r} 0 1.0\n{r} 3 2.0\n")).collect();
    let zero = "spca-sparse 20 6 0\n".to_string();
    for (name, text) in [("zero", zero), ("constant", format!("spca-sparse 20 6 40\n{constant}"))] {
        let data = dir.join(format!("{name}.sm")).to_str().unwrap().to_string();
        std::fs::write(&data, text).unwrap();
        let fit = ["fit", "-d", "2", "--iters", "3", "-i", &data, "-o", model.to_str().unwrap()];
        let out = cli().args(fit).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: fit failed: {stderr}");
        let text = std::fs::read_to_string(&model).unwrap();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{name}: non-finite model");
        std::fs::remove_file(&model).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
