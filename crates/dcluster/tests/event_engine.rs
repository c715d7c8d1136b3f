//! Event-engine contract tests: deterministic ordering, max-min fair
//! sharing, arithmetic-model reproduction, and fault composition.
//!
//! The properties pinned here are the ones the contended timing model's
//! credibility rests on:
//!
//! 1. **Seq-deterministic ordering** — events scheduled for the same
//!    virtual instant pop in push order, and a whole contended simulation
//!    (charges, stages, link stats) is bit-identical whether the host
//!    pool has 1, 2, or 8 workers. Virtual time never reads host time.
//! 2. **Fair sharing** — concurrent flows through a saturated link get
//!    max-min fair rates that sum exactly to the link's capacity, at any
//!    concurrency (2 / 8 / 64 tested), and no link is ever allocated past
//!    100 %.
//! 3. **Arithmetic reproduction** — with one transfer active at a time,
//!    the event-driven model reproduces the legacy aggregate-bandwidth
//!    charges to within 1 µs. This is the regression guard that keeps
//!    every committed baseline meaningful under the default model.
//! 4. **Fault composition** — a crash mid-transfer cancels the flow's
//!    completion event and re-enqueues the reattempt; results and
//!    recovery logs stay identical to the uncontended engine's.
//! 5. **Batched-instant conformance** — `simulate`, which re-solves rates
//!    once per virtual instant, agrees with a per-event reference loop
//!    (one re-solve after every live event) to within 2 ns on every
//!    finish time, on seeded random flow sets with simultaneous arrivals,
//!    balanced groups, disk-only flows and cancellations.

use std::sync::Arc;

use dcluster::events::secs_to_ns;
use dcluster::netsim::{simulate, solve_rates, FlowOutcome, FlowSpec, NO_LINK};
use dcluster::{
    CancelSpec, ClusterConfig, EventQueue, FaultPlan, FaultSpec, SimCluster, TimingModel, Topology,
};
use linalg::{Prng, WorkerPool};

fn contended_cfg() -> ClusterConfig {
    ClusterConfig::scaled_cluster().with_timing(TimingModel::Contended)
}

// ---------------------------------------------------------------- ordering

#[test]
fn timestamp_ties_pop_in_push_order_regardless_of_interleaving() {
    // Three batches pushed at interleaved times; within each timestamp the
    // pop order must equal push order (seq tiebreak), so the flattened
    // pop sequence is a pure function of the push sequence.
    let mut q = EventQueue::with_capacity(64);
    for i in 0..20u32 {
        q.push(u64::from(i % 3), i);
    }
    let mut popped = Vec::new();
    while let Some(ev) = q.pop() {
        popped.push((ev.time_ns, ev.payload));
    }
    let mut expect: Vec<(u64, u32)> = (0..20u32).map(|i| (u64::from(i % 3), i)).collect();
    expect.sort_by_key(|&(t, i)| (t, i));
    assert_eq!(popped, expect);
}

/// One contended "workload": mixed skewed charges plus a compute stage.
/// Returns everything virtual the run produced.
fn contended_run(workers: usize) -> (u64, Vec<(u64, u64, u64)>, u64, u64) {
    let c = SimCluster::new_with_pool(contended_cfg(), Arc::new(WorkerPool::new(workers)));
    c.charge_network_flows(&[700_001, 0, 13, 0, 250_000, 1, 0, 99_999], "skew-a");
    c.charge_dfs_write_flows(&[0, 480_000, 0, 0, 0, 120_000, 0, 7], "skew-b");
    c.charge_broadcast(33_333);
    let tasks: Vec<_> = (0..24u64).map(|i| move || i * 3).collect();
    let out = c.run_stage(dcluster::StageOptions::new("stage"), tasks);
    assert_eq!(out.len(), 24);
    c.charge_dfs_read(614_400);
    let links = c
        .link_stats()
        .into_iter()
        .map(|l| (l.bytes.to_bits(), l.busy_secs.to_bits(), l.peak_util.to_bits()))
        .collect();
    let m = c.metrics();
    let engine = c.engine_stats().unwrap();
    // Stage durations are measured host time, so total virtual time is
    // host-dependent — compare only the I/O-side quantities, which must
    // be bit-exact: the charges consume bytes and config, never clocks.
    let io_us: u64 = {
        let cats = c.category_time_us();
        cats[2] + cats[3] // network + disk
    };
    (io_us, links, m.network_bytes, engine.resolves)
}

#[test]
fn contended_simulation_is_bitwise_identical_across_1_2_8_host_workers() {
    let one = contended_run(1);
    let two = contended_run(2);
    let eight = contended_run(8);
    assert_eq!(one, two, "1 vs 2 host workers");
    assert_eq!(one, eight, "1 vs 8 host workers");
}

// ------------------------------------------------------------ fair sharing

#[test]
fn fair_share_rates_sum_to_link_capacity_at_2_8_64_transfers() {
    let topo = Topology::new(8, 100.0, 50.0);
    for &n in &[2usize, 8, 64] {
        // All n flows cross the same uplink: it is the bottleneck.
        let flows: Vec<[u32; 2]> = (0..n).map(|_| [topo.uplink(3), topo.fabric()]).collect();
        let rates = solve_rates(&topo, &flows);
        assert_eq!(rates.len(), n);
        let sum: f64 = rates.iter().sum();
        let cap = topo.capacity(topo.uplink(3));
        assert!(
            (sum - cap).abs() < 1e-9 * n as f64,
            "{n} transfers: rates sum {sum} != capacity {cap}"
        );
        // Max-min on a single shared bottleneck is an even split.
        for r in &rates {
            assert!((r - cap / n as f64).abs() < 1e-9, "{n} transfers: {rates:?}");
        }
    }
}

#[test]
fn saturating_fabric_carries_exactly_its_capacity() {
    // 64 flows, 8 per downlink: each downlink splits its 100 B/s over 8
    // flows (12.5 B/s each) and the fabric carries all 64 — exactly its
    // 800 B/s capacity, never more.
    let nodes = 8;
    let topo = Topology::new(nodes, 100.0, 50.0);
    let flows: Vec<FlowSpec> = (0..64)
        .map(|i| FlowSpec::new(10_000, [topo.downlink(i % nodes), topo.fabric()]))
        .collect();
    let out = simulate(&topo, &flows, &[], 256);
    for (l, &util) in out.link_peak_util.iter().enumerate() {
        assert!(util <= 1.0 + 1e-9, "link {l} over capacity: {util}");
    }
    assert!((out.link_peak_util[0] - 1.0).abs() < 1e-9, "fabric fully allocated");
    let rates = solve_rates(&topo, &flows.iter().map(|f| f.links).collect::<Vec<_>>());
    let total: f64 = rates.iter().sum();
    assert!((total - topo.capacity(topo.fabric())).abs() < 1e-6, "sum {total}");
}

#[test]
fn concurrent_transfers_never_exceed_link_capacity_at_any_instant() {
    let c = SimCluster::new(contended_cfg());
    // Heavy mixed traffic with strong skew.
    c.charge_network_flows(&[5_000_000, 3_000_000, 0, 0, 0, 0, 0, 1], "skew");
    c.charge_dfs_write_flows(&[2_000_000, 0, 0, 2_000_000, 0, 0, 0, 0], "spill");
    c.charge_broadcast(250_000);
    for l in c.link_stats() {
        assert!(
            l.peak_util <= 1.0 + 1e-9,
            "link {} peaked at {} > 100%",
            l.label,
            l.peak_util
        );
    }
}

// --------------------------------------------- arithmetic reproduction

#[test]
fn single_active_transfer_reproduces_arithmetic_charges_within_1us() {
    // Property sweep: for a spread of byte counts and every charge kind,
    // the event-driven time of a single (uniformly decomposed) transfer
    // matches the legacy arithmetic charge to within 1 µs.
    let sizes = [
        0u64,
        1,
        7,
        4_096,
        65_537,
        1_000_000,
        1_500_000,
        8_388_608,
        123_456_789,
    ];
    for &bytes in &sizes {
        for kind in 0..4 {
            let u = SimCluster::new(ClusterConfig::scaled_cluster());
            let e = SimCluster::new(contended_cfg());
            for c in [&u, &e] {
                match kind {
                    0 => c.charge_network(bytes),
                    1 => c.charge_dfs_write(bytes),
                    2 => c.charge_dfs_read(bytes),
                    _ => c.charge_broadcast(bytes),
                }
            }
            let tu = u.metrics().virtual_time_secs;
            let te = e.metrics().virtual_time_secs;
            assert!(
                (tu - te).abs() < 1e-6,
                "kind {kind}, {bytes} bytes: arithmetic {tu} vs event-driven {te}"
            );
        }
    }
}

#[test]
fn uniform_reproduction_holds_on_the_paper_cluster_too() {
    let u = SimCluster::new(ClusterConfig::paper_cluster());
    let e = SimCluster::new(ClusterConfig::paper_cluster().with_timing(TimingModel::Contended));
    for c in [&u, &e] {
        c.charge_network(960_000_000);
        c.charge_dfs_write(500_000_000);
        c.charge_broadcast(12_345_678);
    }
    let (tu, te) = (u.metrics().virtual_time_secs, e.metrics().virtual_time_secs);
    assert!((tu - te).abs() < 3e-6, "3 charges: {tu} vs {te}");
}

// ------------------------------------------------------ fault composition

#[test]
fn crash_mid_transfer_cancels_and_requeues_deterministically() {
    let topo = Topology::new(4, 1000.0, 500.0);
    let flows = vec![
        FlowSpec::new(10_000, [topo.disk(0), NO_LINK]),
        FlowSpec::new(4_000, [topo.disk(1), NO_LINK]),
    ];
    let cancels = vec![CancelSpec { flow: 0, at_secs: 5.0, requeue_delay_secs: 1.0 }];
    let a = simulate(&topo, &flows, &cancels, 32);
    let b = simulate(&topo, &flows, &cancels, 32);
    // Deterministic across reruns, bitwise.
    assert_eq!(a.finish_secs, b.finish_secs);
    assert_eq!(a.link_bytes, b.link_bytes);
    // Flow 0: cancelled at 5 s (2500 B in), requeued at 6 s, full 10 000 B
    // re-read at 500 B/s → finishes 26 s. Flow 1 unaffected: 8 s.
    assert!((a.finish_secs[0] - 26.0).abs() < 1e-5, "{:?}", a.finish_secs);
    assert!((a.finish_secs[1] - 8.0).abs() < 1e-5, "{:?}", a.finish_secs);
    // The wasted first-attempt bytes stay visible in the link statistics.
    assert!((a.link_bytes[topo.disk(0) as usize] - 12_500.0).abs() < 1.0);
}

#[test]
fn fault_plans_compose_identically_on_both_engines() {
    // Same stage workload + crash plan under both timing models: results
    // and recovery logs (both structural) must be identical; only virtual
    // durations may differ.
    let run = |timing| {
        let c = SimCluster::new(
            ClusterConfig::scaled_cluster()
                .with_nodes(4)
                .with_cores_per_node(2)
                .with_timing(timing),
        );
        c.install_fault_plan(
            FaultSpec::new(7).with_straggler_rate(0.25).with_speculation(true),
            FaultPlan::new().with_crash(2, 0).with_crash(1, 1),
        )
        .unwrap();
        let mut outs = Vec::new();
        for s in 0..3u64 {
            let tasks: Vec<_> = (0..16u64).map(|i| move || i * 31 + s).collect();
            outs.push(c.run_stage(
                dcluster::StageOptions::new("t").with_reexec_read_bytes(2_048),
                tasks,
            ));
        }
        (outs, c.recovery_log())
    };
    let (out_u, log_u) = run(TimingModel::Uncontended);
    let (out_c, log_c) = run(TimingModel::Contended);
    assert_eq!(out_u, out_c);
    assert_eq!(log_u, log_c);
}

// ------------------------------------------- batched-instant conformance

#[derive(Clone, Copy, PartialEq)]
enum RefState {
    Pending,
    Active,
    Done,
}

struct RefFlow {
    links: [u32; 2],
    remaining: f64,
    rate: f64,
    epoch: u64,
    state: RefState,
    origin: usize,
}

enum RefEv {
    Arrival(usize),
    Completion(usize, u64),
    Cancel(usize),
}

/// The per-event flow simulation: rates re-solve after every live event,
/// including events that share a timestamp. Same accounting, epoch and
/// cancellation rules as `simulate`; built only from the public
/// `solve_rates` and `EventQueue`.
fn per_event_reference(topo: &Topology, flows: &[FlowSpec], cancels: &[CancelSpec]) -> FlowOutcome {
    let nlinks = topo.len();
    let mut out = FlowOutcome {
        finish_secs: vec![0.0; flows.len()],
        link_bytes: vec![0.0; nlinks],
        link_busy_secs: vec![0.0; nlinks],
        link_peak_util: vec![0.0; nlinks],
        ..FlowOutcome::default()
    };
    let mut insts: Vec<RefFlow> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| RefFlow {
            links: f.links,
            remaining: f.bytes as f64,
            rate: 0.0,
            epoch: 0,
            state: RefState::Pending,
            origin: i,
        })
        .collect();
    let mut queue = EventQueue::with_capacity(64);
    for (i, f) in flows.iter().enumerate() {
        queue.push(secs_to_ns(f.start_secs), RefEv::Arrival(i));
    }
    for (c, spec) in cancels.iter().enumerate() {
        queue.push(secs_to_ns(spec.at_secs), RefEv::Cancel(c));
    }
    let mut link_alloc = vec![0.0_f64; nlinks];
    let mut active: Vec<usize> = Vec::new();
    let mut now_ns = 0;
    while let Some(ev) = queue.pop() {
        let dt = ev.time_ns.saturating_sub(now_ns) as f64 * 1e-9;
        if dt > 0.0 {
            for (l, &alloc) in link_alloc.iter().enumerate() {
                if alloc > 0.0 {
                    out.link_busy_secs[l] += dt;
                    out.link_bytes[l] += alloc * dt;
                }
            }
            for &i in &active {
                let f = &mut insts[i];
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        now_ns = ev.time_ns;
        let changed = match ev.payload {
            RefEv::Arrival(i) => {
                let live = insts[i].state == RefState::Pending;
                if live {
                    insts[i].state = RefState::Active;
                }
                live
            }
            RefEv::Completion(i, epoch) => {
                let f = &mut insts[i];
                let live = f.state == RefState::Active && f.epoch == epoch;
                if live {
                    f.state = RefState::Done;
                    f.remaining = 0.0;
                    let t = now_ns as f64 * 1e-9;
                    out.finish_secs[f.origin] = t;
                    out.makespan_secs = out.makespan_secs.max(t);
                }
                live
            }
            RefEv::Cancel(c) => {
                let spec = cancels[c];
                let f = &mut insts[spec.flow];
                let live = f.state != RefState::Done;
                if live {
                    f.state = RefState::Done;
                    f.epoch += 1;
                    let (links, origin) = (f.links, f.origin);
                    insts.push(RefFlow {
                        links,
                        remaining: flows[spec.flow].bytes as f64,
                        rate: 0.0,
                        epoch: 0,
                        state: RefState::Pending,
                        origin,
                    });
                    let at = now_ns + secs_to_ns(spec.requeue_delay_secs);
                    queue.push(at, RefEv::Arrival(insts.len() - 1));
                }
                live
            }
        };
        if !changed {
            continue;
        }
        out.resolves += 1;
        active = (0..insts.len()).filter(|&i| insts[i].state == RefState::Active).collect();
        out.peak_flows = out.peak_flows.max(active.len());
        let links: Vec<[u32; 2]> = active.iter().map(|&i| insts[i].links).collect();
        let rates = solve_rates(topo, &links);
        link_alloc.iter_mut().for_each(|a| *a = 0.0);
        for (k, pair) in links.iter().enumerate() {
            for &l in pair.iter().filter(|&&l| l != NO_LINK) {
                link_alloc[l as usize] += rates[k];
            }
        }
        for (l, &alloc) in link_alloc.iter().enumerate() {
            let util = alloc / topo.capacities()[l];
            if util > out.link_peak_util[l] {
                out.link_peak_util[l] = util;
            }
        }
        for (k, &i) in active.iter().enumerate() {
            let f = &mut insts[i];
            if rates[k].to_bits() != f.rate.to_bits() || f.epoch == 0 {
                f.rate = rates[k];
                f.epoch += 1;
                let dur = if f.rate > 0.0 { f.remaining / f.rate } else { 0.0 };
                queue.push(now_ns + secs_to_ns(dur), RefEv::Completion(i, f.epoch));
            }
        }
    }
    out.events = queue.processed();
    out
}

/// A seeded random flow set: 1–40 nodes, groups that arrive together
/// (at `t = 0` or later) or staggered, equal-byte balanced groups,
/// disk-only flows, and cancellations (some with a zero requeue delay).
fn random_flow_set(rng: &mut Prng) -> (Topology, Vec<FlowSpec>, Vec<CancelSpec>) {
    let nodes = 1 + rng.index(40);
    let net = 1_000.0 * (1 + rng.index(100)) as f64;
    let disk = 500.0 * (1 + rng.index(100)) as f64;
    let topo = Topology::new(nodes, net, disk);
    let mut flows = Vec::new();
    for _ in 0..1 + rng.index(4) {
        let start = if rng.index(2) == 0 { 0.0 } else { rng.uniform() * 5.0 };
        match rng.index(4) {
            0 => {
                // Balanced: equal bytes into every node.
                let bytes = rng.index(1_000_000) as u64;
                for n in 0..nodes {
                    flows.push(FlowSpec::new(bytes, [topo.downlink(n), topo.fabric()]).at(start));
                }
            }
            1 => {
                // Skewed network traffic, arriving together.
                for _ in 0..1 + rng.index(2 * nodes) {
                    let n = rng.index(nodes);
                    let link = if rng.index(2) == 0 { topo.uplink(n) } else { topo.downlink(n) };
                    let bytes = rng.index(500_000) as u64;
                    flows.push(FlowSpec::new(bytes, [link, topo.fabric()]).at(start));
                }
            }
            2 => {
                // Disk-only flows.
                for _ in 0..1 + rng.index(nodes) {
                    let bytes = rng.index(300_000) as u64;
                    flows.push(
                        FlowSpec::new(bytes, [topo.disk(rng.index(nodes)), NO_LINK]).at(start),
                    );
                }
            }
            _ => {
                // Staggered arrivals, mixed links.
                for _ in 0..1 + rng.index(nodes) {
                    let n = rng.index(nodes);
                    let links = match rng.index(3) {
                        0 => [topo.uplink(n), topo.fabric()],
                        1 => [topo.downlink(n), topo.fabric()],
                        _ => [topo.disk(n), NO_LINK],
                    };
                    let bytes = rng.index(400_000) as u64;
                    flows.push(FlowSpec::new(bytes, links).at(start + rng.uniform() * 20.0));
                }
            }
        }
    }
    let mut cancels = Vec::new();
    if rng.index(2) == 0 {
        for _ in 0..1 + rng.index(3) {
            let at_secs = if rng.index(4) == 0 { 0.0 } else { rng.uniform() * 30.0 };
            let requeue_delay_secs = if rng.index(3) == 0 { 0.0 } else { rng.uniform() * 2.0 };
            cancels.push(CancelSpec { flow: rng.index(flows.len()), at_secs, requeue_delay_secs });
        }
    }
    (topo, flows, cancels)
}

fn outcome_bits(o: &FlowOutcome) -> Vec<u64> {
    let mut bits = vec![o.makespan_secs.to_bits(), o.events, o.resolves, o.peak_flows as u64];
    for v in [&o.finish_secs, &o.link_bytes, &o.link_busy_secs, &o.link_peak_util] {
        bits.extend(v.iter().map(|x| x.to_bits()));
    }
    bits
}

#[test]
fn batched_instants_match_the_per_event_reference() {
    let mut rng = Prng::seed_from_u64(0xba7c4);
    let within_2ns = |got: f64, want: f64| secs_to_ns(got).abs_diff(secs_to_ns(want)) <= 2;
    for case in 0..400 {
        let (topo, flows, cancels) = random_flow_set(&mut rng);
        let got = simulate(&topo, &flows, &cancels, 64);
        let want = per_event_reference(&topo, &flows, &cancels);
        let tag = format!(
            "case {case}: {} nodes, {} flows, {} cancels",
            topo.nodes(),
            flows.len(),
            cancels.len()
        );
        assert!(
            within_2ns(got.makespan_secs, want.makespan_secs),
            "{tag}: makespan {} vs {}",
            got.makespan_secs,
            want.makespan_secs
        );
        for (i, (&g, &w)) in got.finish_secs.iter().zip(&want.finish_secs).enumerate() {
            assert!(within_2ns(g, w), "{tag}: flow {i} finished at {g} vs {w}");
        }
        for (l, (&g, &w)) in got.link_bytes.iter().zip(&want.link_bytes).enumerate() {
            assert!((g - w).abs() <= 1e-6 * w.abs().max(1.0), "{tag}: link {l} carried {g} vs {w}");
        }
        for (l, (&g, &w)) in got.link_peak_util.iter().zip(&want.link_peak_util).enumerate() {
            assert!(g <= w, "{tag}: link {l} peaked at {g} above the reference's {w}");
        }
        let again = simulate(&topo, &flows, &cancels, 64);
        assert_eq!(outcome_bits(&got), outcome_bits(&again), "{tag}: rerun differs");
    }
}
