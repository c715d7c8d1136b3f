//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Generates the workload's inputs from the seed, runs back-to-back reps
//! (one fit, or one whole serving mix) on a fresh simulated cluster
//! sharing one host worker pool for at least `S` seconds, checks the
//! outputs, and prints one JSON line: the end-to-end metrics untraced
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A failed check
//! prints `"correct": false` and exits with status 1; bad arguments exit
//! with status 2 and print nothing on stdout.

mod host;
mod replay;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use dcluster::{StageRecord, TimingModel};
use linalg::WorkerPool;
use perfbench::stats::{self, median};
use perfbench::{Metric, END_TO_END, PER_LAYER};

use workload::{exact, run_rep, virtual_s, Input, Kind, Output, Rep, Workload};

/// Set-ups per run (`setup_s` is their median): at least `MIN_SETUPS`,
/// then more until they add up to `SETUP_SECONDS`, at most `MAX_SETUPS`.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_SECONDS: f64 = 0.25;
/// Fewest timed reps per arm, however short `--seconds` is.
const MIN_REPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let kind = Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        kind,
        name,
        seed,
        seconds,
        trace,
    })
}

/// Named pass/fail checks; any failure makes the run incorrect.
#[derive(Default)]
struct Checks(Vec<(String, bool)>);

impl Checks {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.0.push((name.into(), ok));
    }
    fn all_pass(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }
}

/// Driver-step stage records (`run_driver`), kept apart from engine
/// stages so `stage.*` counts only work the host pool executes.
fn driver_secs(stages: &[StageRecord], step: &str) -> f64 {
    stages
        .iter()
        .filter(|s| s.label.ends_with(step))
        .map(|s| s.cpu_secs)
        .sum()
}

fn is_driver_stage(s: &StageRecord) -> bool {
    s.label.ends_with("rpca/recover") || s.label.ends_with("rpca/orthonormalize")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = Arc::new(WorkerPool::new(workers));

    // Set-up: input generation and cluster construction, repeated until
    // there are enough samples for a steady median.
    let mut setup_times = Vec::new();
    let mut generated = None;
    while setup_times.len() < MIN_SETUPS
        || (setup_times.iter().sum::<f64>() < SETUP_SECONDS && setup_times.len() < MAX_SETUPS)
    {
        let t = Instant::now();
        let w = Workload::generate(args.kind, args.seed);
        drop(dcluster::SimCluster::new_with_pool(
            w.cluster.clone(),
            Arc::clone(&pool),
        ));
        setup_times.push(t.elapsed().as_secs_f64());
        generated = Some(w);
    }
    let w = generated.expect("at least one set-up ran");
    eprintln!(
        "perfbench: {} seed {} — {}; {} host workers",
        args.name,
        args.seed,
        w.describe(),
        workers
    );

    // Warm-up rep: fills caches and lazy state, and is the reference
    // every other rep's exact outputs must equal.
    let reference = run_rep(&w, &w.cluster, &pool);
    let ref_exact = exact(&w, &reference);
    // The high-water mark after set-up and one rep: every rep does the
    // same work, and reading it before the timed loop keeps the number of
    // reps (which varies with host speed) out of it.
    let peak_rss_mb = host::peak_rss_mb();
    let mut checks = Checks::default();
    checks.check("reference rep succeeded", ref_exact.is_some());

    let contended = w.cluster.timing == TimingModel::Contended;
    let uncontended_cfg = w.cluster.clone().with_timing(TimingModel::Uncontended);
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut uncontended_host: Vec<f64> = Vec::new();
    let mut ytx_flops = 0u64;
    let t0 = Instant::now();
    while untraced.len() < MIN_REPS || t0.elapsed().as_secs_f64() < args.seconds {
        untraced.push(run_rep(&w, &w.cluster, &pool));
        if args.trace {
            let collector = obs::install_new();
            traced.push(run_rep(&w, &w.cluster, &pool));
            obs::uninstall();
            ytx_flops = collector.registry().counter("em.ytx.flops").get();
            if contended {
                uncontended_host.push(run_rep(&w, &uncontended_cfg, &pool).host_s);
            }
        }
    }

    // Correctness: exact outputs repeat on every rep (traced reps
    // included — tracing must not change results), across pool sizes,
    // and across timing models.
    let same = |rep: &Rep| exact(&w, rep) == ref_exact;
    checks.check(
        "exact outputs identical on every rep",
        untraced.iter().chain(&traced).all(same),
    );
    let one_worker = Arc::new(WorkerPool::new(1));
    let solo = run_rep(&w, &w.cluster, &one_worker);
    let what = if matches!(w.input, Input::Serve(_)) {
        "serving trace hash"
    } else {
        "model bits"
    };
    checks.check(
        format!("{what} identical on 1-worker and {workers}-worker pools"),
        same(&solo),
    );
    if contended {
        let plain = run_rep(&w, &uncontended_cfg, &pool);
        checks.check("contended model bits equal uncontended", same(&plain));
    }
    if let Some(e) = &ref_exact {
        checks.check("final_error is finite", e.final_error().is_finite());
        if let Some(first) = e.first_error_bits {
            checks.check(
                "final_error no worse than the first iteration's",
                e.final_error() <= f64::from_bits(first),
            );
        }
    }

    let reps: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let host = host_secs(&untraced);

    let metrics: Vec<(Metric, f64)> = match (&ref_exact, args.trace) {
        (None, _) => Vec::new(),
        (Some(e), false) => {
            let cpu: Vec<f64> = untraced.iter().map(|r| r.cpu_s).collect();
            let virt: Vec<f64> = untraced.iter().filter_map(virtual_s).collect();
            let values = [
                median(&host),
                median(&cpu),
                median(&setup_times),
                peak_rss_mb,
                if virt.is_empty() {
                    f64::NAN
                } else {
                    median(&virt)
                },
                e.intermediate_bytes as f64,
                e.final_error(),
                e.driver_peak_bytes as f64,
                stats::ok_frac(attempted, failed),
            ];
            END_TO_END.iter().copied().zip(values).collect()
        }
        (Some(_), true) => {
            let layer = LayerInputs {
                w: &w,
                reference: &reference,
                untraced: &untraced,
                traced: &traced,
                uncontended_host: &uncontended_host,
                ytx_flops,
                workers,
                contended,
            };
            per_layer(&layer, &args)
        }
    };
    checks.check(
        "every metric is finite",
        metrics.iter().all(|(_, v)| v.is_finite()),
    );

    let listed: Vec<String> = host.iter().map(|h| format!("{h:.4}")).collect();
    eprintln!(
        "perfbench: host_s median {:.4} s over untraced reps ({}) [{}]; setup_s median {:.4} s of n={}",
        median(&host),
        stats::quotable(host.len()),
        listed.join(" "),
        median(&setup_times),
        setup_times.len()
    );
    if let Some(e) = &ref_exact {
        eprintln!("perfbench: reference hash {:#018x}", e.hash);
    }
    for (name, ok) in &checks.0 {
        eprintln!(
            "perfbench: check {:<52} {}",
            name,
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let correct = checks.all_pass() && !metrics.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

struct LayerInputs<'a> {
    w: &'a Workload,
    reference: &'a Rep,
    untraced: &'a [Rep],
    traced: &'a [Rep],
    uncontended_host: &'a [f64],
    ytx_flops: u64,
    workers: usize,
    contended: bool,
}

/// The traced run's per-layer metrics, in `PER_LAYER` order.
fn per_layer(l: &LayerInputs<'_>, args: &Args) -> Vec<(Metric, f64)> {
    // Replays, under a collector of their own so the written trace holds
    // the benchmark's layer spans (and what the replayed calls emit).
    let collector = obs::install_new();
    let mut r = replay::Replayed::default();
    let mut project_s = 0.0;
    match (&l.w.input, l.reference.output.as_ref()) {
        (Input::Fit(f), Some(Output::Fit(run))) => {
            let parts = f
                .config
                .partitions
                .expect("fit workloads fix their partitions");
            r = replay::fit(&f.y, &f.config, f.engine, parts, &run.model);
        }
        (Input::Serve(spec), Some(Output::Serve(out))) => {
            let total_cores = l.w.cluster.total_cores();
            for (tenant, model) in spec.tenants.iter().zip(&out.models) {
                let model = model.as_ref().expect("every tenant's fit completed");
                for job in &tenant.fit_jobs {
                    let parts = job.config.partitions.unwrap_or(total_cores);
                    let engine = workload::Engine::Spark;
                    r.add(&replay::fit(&job.y, &job.config, engine, parts, model));
                }
            }
            let (load, model) = spec
                .tenants
                .iter()
                .zip(&out.models)
                .find_map(|(t, m)| Some((t.serve.as_ref()?, m.as_ref()?)))
                .expect("the mix has a serving tenant");
            project_s = replay::project_stream(load, model);
        }
        _ => unreachable!("checked: the reference rep succeeded"),
    }
    obs::uninstall();
    write_trace(&collector, args);

    let host_untraced = median(&host_secs(l.untraced));
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&l.untraced.iter().map(f).collect::<Vec<_>>());
    let task_s = per_rep(&|r| {
        r.metrics
            .stages
            .iter()
            .filter(|s| !is_driver_stage(s))
            .map(|s| s.cpu_secs)
            .sum()
    });
    let m = &l.reference.metrics;
    let engine_stages: Vec<&StageRecord> =
        m.stages.iter().filter(|s| !is_driver_stage(s)).collect();
    let ev = l.reference.engine.unwrap_or_default();
    let sim_host_s = if l.contended {
        stats::sim_host_s(&host_secs(l.untraced), l.uncontended_host)
    } else {
        0.0
    };
    let flops = l.ytx_flops as f64;
    let cat = |i: usize| m.time_us[i] as f64 / 1e6;

    let serve = match l.reference.output.as_ref() {
        Some(Output::Serve(o)) => Some(o),
        _ => None,
    };
    let serve_stat = |f: &dyn Fn(&spca_core::serving::ServingOutcome) -> f64| serve.map_or(0.0, f);
    let light_waits: Vec<f64> = serve.map_or(Vec::new(), |o| {
        let mut waits: Vec<f64> = o
            .schedule
            .records
            .iter()
            .filter(|r| r.tenant != 0)
            .map(|r| r.wait_secs())
            .collect();
        waits.sort_by(f64::total_cmp);
        waits
    });
    if let Some(o) = serve {
        eprintln!(
            "perfbench: serve.p99_virtual_s over {}; jobs.light_wait_p99_virtual_s over {}",
            stats::quotable(o.batches_total as usize),
            stats::quotable(light_waits.len())
        );
    }
    let (hits, misses) = serve.map_or((0, 0), |o| {
        o.tenants
            .iter()
            .fold((0, 0), |(h, m), t| (h + t.cache_hits, m + t.cache_misses))
    });

    let values = [
        r.ytx_s,
        r.ss3_s,
        r.rpca_pass_s,
        flops,
        stats::ratio(flops, r.ytx_s) / 1e9,
        stats::ratio(flops, r.ytx_bytes),
        task_s,
        engine_stages.len() as f64,
        engine_stages.iter().map(|s| s.tasks).sum::<usize>() as f64,
        stats::pool_util(task_s, host_untraced, l.workers),
        r.reassemble_s,
        r.merge_s,
        l.reference.task_retries as f64,
        r.encode_s,
        m.network_bytes as f64,
        m.dfs_bytes_written as f64,
        m.dfs_bytes_read as f64,
        ev.events as f64,
        ev.resolves as f64,
        stats::ratio(ev.resolves as f64, ev.events as f64),
        ev.peak_flows as f64,
        sim_host_s,
        if sim_host_s > 0.0 {
            ev.events as f64 / sim_host_s
        } else {
            0.0
        },
        cat(0),
        cat(1),
        cat(2),
        cat(3),
        cat(4),
        r.update_s,
        r.assemble_s,
        r.error_s,
        per_rep(&|r| driver_secs(&r.metrics.stages, "rpca/recover")),
        per_rep(&|r| driver_secs(&r.metrics.stages, "rpca/orthonormalize")),
        project_s,
        serve_stat(&|o| o.requests_total as f64),
        serve_stat(&|o| o.batches_total as f64),
        serve_stat(&|o| o.rejected_total as f64),
        stats::ratio(hits as f64, (hits + misses) as f64),
        if serve.is_some() {
            l.reference.cache_evictions as f64
        } else {
            0.0
        },
        serve_stat(&|o| o.broadcasts as f64),
        serve_stat(&|o| o.events_processed as f64),
        serve_stat(&|o| o.latency_p99_secs),
        serve_stat(&|o| o.schedule.records.len() as f64),
        serve_stat(&|o| o.schedule.rejected.len() as f64),
        dcluster::jobs::percentile(&light_waits, 99.0),
        stats::trace_overhead_frac(&host_secs(l.traced), &host_secs(l.untraced)),
    ];
    PER_LAYER.iter().copied().zip(values).collect()
}

fn host_secs(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.host_s).collect()
}

/// Writes the replay trace (Chrome trace-event JSON) under the
/// benchmark's own `traces/` directory.
fn write_trace(collector: &obs::Collector, args: &Args) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.name, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, obs::export::export_collector(collector)));
    match written {
        Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
