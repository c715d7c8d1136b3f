//! Shared-bandwidth network/disk model: concurrent transfers split link
//! capacity max-min-fairly, with rates re-solved once per virtual instant
//! at which a transfer starts, finishes, or is cancelled.
//!
//! # Topology
//!
//! The cluster is modeled as `3n + 1` capacity-constrained links for `n`
//! nodes: one **fabric** (the switch backplane, capacity `n ×` the
//! per-node link), an **uplink** and a **downlink** per node (each at the
//! configured `network_bytes_per_sec`), and one **disk** per node (at
//! `disk_bytes_per_sec`). A network flow crosses its endpoint's
//! uplink/downlink plus the fabric; a DFS flow crosses one disk. With the
//! fabric at exactly `n ×` the node links, a *balanced* transfer (equal
//! bytes per node) gets the full aggregate bandwidth — reproducing the
//! old arithmetic model — while *skewed* transfers saturate some links
//! and idle others, which is precisely the contention the arithmetic
//! model could never express.
//!
//! # Fair sharing
//!
//! Rates come from progressive filling (max-min fairness): all unfrozen
//! flows gain rate uniformly until some link saturates; flows crossing a
//! saturated link freeze at the waterline; repeat. The solver never
//! allocates more than a link's capacity, so per-link utilization is
//! ≤ 100 % at every virtual instant by construction.
//!
//! # Batched instants
//!
//! Every live event that fires at the same nanosecond is applied before
//! the rates re-solve, once, over the resulting active set. The rate sets
//! in between would last zero nanoseconds, so skipping them changes no
//! positive-length interval: a charge group whose thousands of flows all
//! arrive at `t = 0` costs one solve, not one per arrival. One tie effect
//! remains: two flows completing at the same instant both finish there,
//! where a per-event loop would re-solve after the first and re-push the
//! second a rounding step later.
//!
//! # Determinism
//!
//! The simulation consumes only byte counts, start offsets, and config
//! capacities — never host time. Events order through the
//! [`EventQueue`]'s `(time_ns, seq)` key, links and flows iterate in
//! fixed index order, and the arithmetic is pure `f64`, so every outcome
//! field is bit-identical across machines and host worker counts.

use crate::events::{secs_to_ns, EventQueue, SimNanos};

/// Sentinel for an unused slot in a flow's link list.
pub const NO_LINK: u32 = u32::MAX;

/// The link layout for an `n`-node cluster.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: usize,
    caps: Vec<f64>,
}

impl Topology {
    /// Builds the `3n + 1` link set from per-node bandwidths.
    pub fn new(nodes: usize, network_bytes_per_sec: f64, disk_bytes_per_sec: f64) -> Self {
        assert!(nodes > 0, "topology: need at least one node");
        let mut caps = Vec::with_capacity(3 * nodes + 1);
        caps.push(network_bytes_per_sec * nodes as f64); // fabric
        caps.extend(std::iter::repeat(network_bytes_per_sec).take(2 * nodes)); // up, down
        caps.extend(std::iter::repeat(disk_bytes_per_sec).take(nodes)); // disks
        Topology { nodes, caps }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The switch backplane link.
    pub fn fabric(&self) -> u32 {
        0
    }

    /// Node `i`'s transmit link.
    pub fn uplink(&self, node: usize) -> u32 {
        (1 + node % self.nodes) as u32
    }

    /// Node `i`'s receive link.
    pub fn downlink(&self, node: usize) -> u32 {
        (1 + self.nodes + node % self.nodes) as u32
    }

    /// Node `i`'s disk.
    pub fn disk(&self, node: usize) -> u32 {
        (1 + 2 * self.nodes + node % self.nodes) as u32
    }

    /// Total number of links.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// True for the degenerate empty topology (never constructed; kept
    /// for the `len`/`is_empty` pairing lint).
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Capacity of `link` in bytes/sec.
    pub fn capacity(&self, link: u32) -> f64 {
        self.caps[link as usize]
    }

    /// All capacities, fabric first.
    pub fn capacities(&self) -> &[f64] {
        &self.caps
    }

    /// Human-readable link name (`fabric`, `up:3`, `down:0`, `disk:7`).
    pub fn label(&self, link: u32) -> String {
        let l = link as usize;
        if l == 0 {
            "fabric".to_string()
        } else if l <= self.nodes {
            format!("up:{}", l - 1)
        } else if l <= 2 * self.nodes {
            format!("down:{}", l - 1 - self.nodes)
        } else {
            format!("disk:{}", l - 1 - 2 * self.nodes)
        }
    }
}

/// One transfer: `bytes` crossing up to two links, arriving at
/// `start_secs` on the simulation's relative clock.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Arrival offset from the simulation origin, in virtual seconds.
    pub start_secs: f64,
    /// Payload size.
    pub bytes: u64,
    /// Links the flow crosses ([`NO_LINK`] for unused slots).
    pub links: [u32; 2],
}

impl FlowSpec {
    /// A flow starting at the origin.
    pub fn new(bytes: u64, links: [u32; 2]) -> Self {
        FlowSpec { start_secs: 0.0, bytes, links }
    }

    /// Builder-style arrival offset.
    pub fn at(mut self, start_secs: f64) -> Self {
        self.start_secs = start_secs;
        self
    }
}

/// A mid-transfer crash: at `at_secs`, flow `flow` (by spec index) is
/// cancelled — its completion event is tombstoned — and a reattempt
/// carrying the full byte count is re-enqueued `requeue_delay_secs`
/// later. The reattempt's finish is reported under the original flow's
/// index. A cancel aimed at an already-finished flow is a no-op.
#[derive(Debug, Clone, Copy)]
pub struct CancelSpec {
    /// Index into the `flows` slice passed to [`simulate`].
    pub flow: usize,
    /// When the crash fires, in virtual seconds.
    pub at_secs: f64,
    /// Extra delay before the reattempt starts (failure detection +
    /// rescheduling, the `task_retry_delay_secs` knob).
    pub requeue_delay_secs: f64,
}

/// What the flow simulation produced.
#[derive(Debug, Clone, Default)]
pub struct FlowOutcome {
    /// Completion time of the last flow, in virtual seconds from the
    /// simulation origin (0 for an empty flow set).
    pub makespan_secs: f64,
    /// Per-input-flow completion time (reattempts report under the
    /// original index).
    pub finish_secs: Vec<f64>,
    /// Heap events processed (arrivals, completions, cancels, and stale
    /// re-solve tombstones).
    pub events: u64,
    /// Rate re-solves performed: one per virtual instant at which at
    /// least one live event fired (one that changed a flow's state; a
    /// stale completion or a no-op cancel is not live).
    pub resolves: u64,
    /// Bytes carried per link, indexed like [`Topology::capacities`].
    pub link_bytes: Vec<f64>,
    /// Virtual seconds each link spent with at least one active flow.
    pub link_busy_secs: Vec<f64>,
    /// Peak allocated-rate / capacity per link (≤ 1.0 by construction).
    pub link_peak_util: Vec<f64>,
    /// Maximum number of simultaneously active flows.
    pub peak_flows: usize,
}

/// Max-min fair rates for `flows` (each a link pair) over `caps`,
/// touching only links listed in `touched`. `out` is overwritten.
fn solve_into(
    caps: &[f64],
    flows: &[(usize, [u32; 2])],
    touched: &[u32],
    nflows: &mut [u32],
    cap_left: &mut [f64],
    out: &mut [f64],
) {
    for &l in touched {
        nflows[l as usize] = 0;
        cap_left[l as usize] = caps[l as usize];
    }
    for (_, links) in flows {
        for &l in links {
            if l != NO_LINK {
                nflows[l as usize] += 1;
            }
        }
    }
    let f = flows.len();
    let mut frozen = vec![false; f];
    let mut water = 0.0_f64;
    let mut remaining = f;
    while remaining > 0 {
        let mut delta = f64::INFINITY;
        for &l in touched {
            let l = l as usize;
            if nflows[l] > 0 {
                let share = cap_left[l] / nflows[l] as f64;
                if share < delta {
                    delta = share;
                }
            }
        }
        if !delta.is_finite() {
            // No constrained link left (flows with no links): unreachable
            // through the public API, but freeze defensively.
            for (i, fr) in frozen.iter_mut().enumerate() {
                if !*fr {
                    out[i] = f64::INFINITY;
                }
            }
            break;
        }
        water += delta;
        // Drain every constrained link by the uniform fill; links whose
        // pre-fill share equals the minimum saturate exactly.
        let mut any_saturated = false;
        for &l in touched {
            let l = l as usize;
            if nflows[l] > 0 {
                let share = cap_left[l] / nflows[l] as f64;
                cap_left[l] -= delta * nflows[l] as f64;
                if share == delta {
                    cap_left[l] = 0.0;
                    any_saturated = true;
                }
            }
        }
        for (i, (_, links)) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let hit_bottleneck = !any_saturated
                || links.iter().any(|&l| l != NO_LINK && nflows[l as usize] > 0 && {
                    cap_left[l as usize] == 0.0
                });
            if hit_bottleneck {
                frozen[i] = true;
                out[i] = water;
                remaining -= 1;
                for &l in links {
                    if l != NO_LINK {
                        nflows[l as usize] -= 1;
                    }
                }
            }
        }
    }
}

/// Max-min fair rates for concurrent `flows` over `topo` — the solver the
/// event loop re-runs once per instant with a transfer start/finish.
/// Exposed for the fair-share property tests.
pub fn solve_rates(topo: &Topology, flows: &[[u32; 2]]) -> Vec<f64> {
    let caps = topo.capacities();
    let touched: Vec<u32> = (0..caps.len() as u32).collect();
    let indexed: Vec<(usize, [u32; 2])> = flows.iter().copied().enumerate().collect();
    let mut out = vec![0.0; flows.len()];
    let mut nflows = vec![0u32; caps.len()];
    let mut cap_left = vec![0.0; caps.len()];
    solve_into(caps, &indexed, &touched, &mut nflows, &mut cap_left, &mut out);
    out
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowState {
    Pending,
    Active,
    Done,
}

#[derive(Debug)]
struct FlowInstance {
    links: [u32; 2],
    remaining: f64,
    rate: f64,
    epoch: u64,
    state: FlowState,
    /// Index into the caller's spec slice this instance reports under.
    origin: usize,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival(usize),
    Completion { inst: usize, epoch: u64 },
    Cancel(usize),
}

/// Runs the shared-bandwidth simulation: every flow arrives at its start
/// offset, rates re-solve max-min-fairly once per virtual instant with an
/// arrival / completion / cancellation, and the outcome reports
/// completion times plus per-link contention statistics.
/// `queue_capacity` pre-sizes the event heap.
pub fn simulate(
    topo: &Topology,
    flows: &[FlowSpec],
    cancels: &[CancelSpec],
    queue_capacity: usize,
) -> FlowOutcome {
    let nlinks = topo.len();
    let mut out = FlowOutcome {
        finish_secs: vec![0.0; flows.len()],
        link_bytes: vec![0.0; nlinks],
        link_busy_secs: vec![0.0; nlinks],
        link_peak_util: vec![0.0; nlinks],
        ..FlowOutcome::default()
    };
    if flows.is_empty() {
        return out;
    }

    let mut insts: Vec<FlowInstance> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| FlowInstance {
            links: f.links,
            remaining: f.bytes as f64,
            rate: 0.0,
            epoch: 0,
            state: FlowState::Pending,
            origin: i,
        })
        .collect();

    // Links any flow can touch — the only ones the solver and the
    // accounting pass visit (the full topology can be 3000+ links at
    // 1000 virtual nodes; a charge group usually touches a fraction).
    let mut touched: Vec<u32> = flows
        .iter()
        .flat_map(|f| f.links.into_iter())
        .filter(|&l| l != NO_LINK)
        .collect();
    touched.sort_unstable();
    touched.dedup();

    let mut queue: EventQueue<Ev> = EventQueue::with_capacity(queue_capacity);
    for (i, f) in flows.iter().enumerate() {
        queue.push(secs_to_ns(f.start_secs), Ev::Arrival(i));
    }
    for (c, spec) in cancels.iter().enumerate() {
        assert!(spec.flow < flows.len(), "cancel names flow {} of {}", spec.flow, flows.len());
        queue.push(secs_to_ns(spec.at_secs), Ev::Cancel(c));
    }

    let mut nflows_scratch = vec![0u32; nlinks];
    let mut cap_left_scratch = vec![0.0_f64; nlinks];
    // Per-link allocated rate under the *current* rate set, refreshed at
    // every re-solve. Keeping it incrementally makes the inter-event
    // accounting O(touched + active) instead of O(touched × instances) —
    // the difference between minutes and milliseconds at 1000 virtual
    // nodes with thousands of per-partition flows.
    let mut link_alloc = vec![0.0_f64; nlinks];
    let mut active: Vec<(usize, [u32; 2])> = Vec::with_capacity(flows.len());
    let mut rates: Vec<f64> = Vec::with_capacity(flows.len());
    let mut now_ns: SimNanos = 0;
    // A live event was applied since the last re-solve.
    let mut dirty = false;

    while let Some(ev) = queue.pop() {
        // Account the elapsed interval against the previous rate set.
        // Between events no flow changes state, so `active` (rebuilt at
        // the last re-solve) is exactly the set that moved bytes.
        let dt = (ev.time_ns.saturating_sub(now_ns)) as f64 * 1e-9;
        if dt > 0.0 {
            for &l in &touched {
                let alloc = link_alloc[l as usize];
                if alloc > 0.0 {
                    out.link_busy_secs[l as usize] += dt;
                    out.link_bytes[l as usize] += alloc * dt;
                }
            }
            for &(i, _) in &active {
                let inst = &mut insts[i];
                inst.remaining = (inst.remaining - inst.rate * dt).max(0.0);
            }
        }
        now_ns = ev.time_ns;

        let mut changed = false;
        match ev.payload {
            Ev::Arrival(i) => {
                if insts[i].state == FlowState::Pending {
                    insts[i].state = FlowState::Active;
                    changed = true;
                }
            }
            Ev::Completion { inst, epoch } => {
                let f = &mut insts[inst];
                if f.state == FlowState::Active && f.epoch == epoch {
                    f.state = FlowState::Done;
                    f.remaining = 0.0;
                    let t = now_ns as f64 * 1e-9;
                    out.finish_secs[f.origin] = t;
                    out.makespan_secs = out.makespan_secs.max(t);
                    changed = true;
                }
            }
            Ev::Cancel(c) => {
                let spec = cancels[c];
                let f = &mut insts[spec.flow];
                if f.state == FlowState::Active || f.state == FlowState::Pending {
                    // Drop the attempt (its completion event goes stale via
                    // the epoch bump below) and re-enqueue a full-size
                    // reattempt after the detection delay.
                    f.state = FlowState::Done;
                    f.epoch += 1;
                    let origin = f.origin;
                    let links = f.links;
                    let bytes = flows[spec.flow].bytes as f64;
                    insts.push(FlowInstance {
                        links,
                        remaining: bytes,
                        rate: 0.0,
                        epoch: 0,
                        state: FlowState::Pending,
                        origin,
                    });
                    let reattempt = insts.len() - 1;
                    queue.push(
                        now_ns + secs_to_ns(spec.requeue_delay_secs),
                        Ev::Arrival(reattempt),
                    );
                    changed = true;
                }
            }
        }
        dirty |= changed;
        // Apply every event of this instant before re-solving: the
        // intermediate rate sets would last zero nanoseconds. A stale
        // completion costs only the heap pop.
        if !dirty || queue.peek_time() == Some(now_ns) {
            continue;
        }
        dirty = false;

        // Re-solve rates for the active set and re-schedule completions
        // for flows whose rate moved.
        out.resolves += 1;
        active.clear();
        for (i, inst) in insts.iter().enumerate() {
            if inst.state == FlowState::Active {
                active.push((i, inst.links));
            }
        }
        out.peak_flows = out.peak_flows.max(active.len());
        rates.resize(active.len(), 0.0);
        solve_into(
            topo.capacities(),
            &active,
            &touched,
            &mut nflows_scratch,
            &mut cap_left_scratch,
            &mut rates,
        );
        for &l in &touched {
            link_alloc[l as usize] = 0.0;
        }
        for (k, (_, links)) in active.iter().enumerate() {
            for &l in links {
                if l != NO_LINK {
                    link_alloc[l as usize] += rates[k];
                }
            }
        }
        for &l in &touched {
            let cap = topo.capacity(l);
            if cap > 0.0 {
                let util = link_alloc[l as usize] / cap;
                if util > out.link_peak_util[l as usize] {
                    out.link_peak_util[l as usize] = util;
                }
            }
        }
        for (k, &(i, _)) in active.iter().enumerate() {
            let inst = &mut insts[i];
            let new_rate = rates[k];
            if new_rate.to_bits() != inst.rate.to_bits() || inst.epoch == 0 {
                inst.rate = new_rate;
                inst.epoch += 1;
                let dur_secs = if new_rate > 0.0 { inst.remaining / new_rate } else { 0.0 };
                queue.push(now_ns + secs_to_ns(dur_secs), Ev::Completion {
                    inst: i,
                    epoch: inst.epoch,
                });
            }
        }
    }
    out.events = queue.processed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo8() -> Topology {
        Topology::new(8, 100.0, 50.0)
    }

    #[test]
    fn topology_layout_and_labels() {
        let t = topo8();
        assert_eq!(t.len(), 25);
        assert_eq!(t.capacity(t.fabric()), 800.0);
        assert_eq!(t.capacity(t.uplink(3)), 100.0);
        assert_eq!(t.capacity(t.downlink(0)), 100.0);
        assert_eq!(t.capacity(t.disk(7)), 50.0);
        assert_eq!(t.label(t.fabric()), "fabric");
        assert_eq!(t.label(t.uplink(3)), "up:3");
        assert_eq!(t.label(t.downlink(5)), "down:5");
        assert_eq!(t.label(t.disk(2)), "disk:2");
    }

    #[test]
    fn single_flow_gets_its_bottleneck_rate() {
        let t = topo8();
        let rates = solve_rates(&t, &[[t.uplink(0), t.fabric()]]);
        assert_eq!(rates, vec![100.0], "one flow is capped by its uplink");
    }

    #[test]
    fn balanced_flows_saturate_every_uplink() {
        let t = topo8();
        let flows: Vec<[u32; 2]> = (0..8).map(|n| [t.uplink(n), t.fabric()]).collect();
        let rates = solve_rates(&t, &flows);
        assert!(rates.iter().all(|&r| r == 100.0), "{rates:?}");
    }

    #[test]
    fn fair_share_splits_a_shared_link_evenly() {
        let t = topo8();
        // 4 flows on one uplink: each gets a quarter of it.
        let flows = vec![[t.uplink(2), t.fabric()]; 4];
        let rates = solve_rates(&t, &flows);
        assert!(rates.iter().all(|&r| (r - 25.0).abs() < 1e-12), "{rates:?}");
        assert!((rates.iter().sum::<f64>() - 100.0).abs() < 1e-9, "shares sum to capacity");
    }

    #[test]
    fn max_min_gives_unconstrained_flows_the_leftovers() {
        // 3 flows share uplink 0 (rate 100/3 each); 1 flow alone on
        // uplink 1 takes the full 100. Fabric (800) never binds.
        let t = topo8();
        let flows = vec![
            [t.uplink(0), t.fabric()],
            [t.uplink(0), t.fabric()],
            [t.uplink(0), t.fabric()],
            [t.uplink(1), t.fabric()],
        ];
        let rates = solve_rates(&t, &flows);
        for r in &rates[..3] {
            assert!((r - 100.0 / 3.0).abs() < 1e-9, "{rates:?}");
        }
        assert!((rates[3] - 100.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn fabric_binds_when_oversubscribed() {
        // 16 flows across 8 uplinks (2 each): uplink share would be 50,
        // but with a narrow fabric of 400 the fabric share 400/16 = 25
        // binds first.
        let t = Topology::new(8, 100.0, 50.0);
        let narrow = {
            let mut t2 = t.clone();
            t2.caps[0] = 400.0;
            t2
        };
        let flows: Vec<[u32; 2]> =
            (0..16).map(|i| [narrow.uplink(i % 8), narrow.fabric()]).collect();
        let rates = solve_rates(&narrow, &flows);
        assert!(rates.iter().all(|&r| (r - 25.0).abs() < 1e-9), "{rates:?}");
        assert!((rates.iter().sum::<f64>() - 400.0).abs() < 1e-6, "fabric fully used");
    }

    #[test]
    fn simulate_single_flow_matches_arithmetic() {
        let t = topo8();
        let out = simulate(&t, &[FlowSpec::new(1000, [t.uplink(0), t.fabric()])], &[], 16);
        assert!((out.makespan_secs - 10.0).abs() < 1e-6, "{}", out.makespan_secs);
        assert!((out.finish_secs[0] - 10.0).abs() < 1e-6);
        assert!(out.events >= 2);
        assert_eq!(out.peak_flows, 1);
    }

    #[test]
    fn skewed_flows_finish_at_their_own_pace() {
        let t = topo8();
        let flows = vec![
            FlowSpec::new(1000, [t.uplink(0), t.fabric()]), // 10 s alone
            FlowSpec::new(500, [t.uplink(1), t.fabric()]),  // 5 s alone
        ];
        let out = simulate(&t, &flows, &[], 16);
        assert!((out.finish_secs[0] - 10.0).abs() < 1e-6, "{:?}", out.finish_secs);
        assert!((out.finish_secs[1] - 5.0).abs() < 1e-6, "{:?}", out.finish_secs);
        // Uplink 1 idles after 5 s: busy 5 s, uplink 0 busy 10 s.
        assert!((out.link_busy_secs[t.uplink(0) as usize] - 10.0).abs() < 1e-6);
        assert!((out.link_busy_secs[t.uplink(1) as usize] - 5.0).abs() < 1e-6);
        assert!(out.link_peak_util.iter().all(|&u| u <= 1.0 + 1e-9));
    }

    #[test]
    fn shared_link_contention_stretches_completions() {
        let t = topo8();
        // Two 500-byte flows on the same uplink: 10 s together, not 5.
        let flows = vec![
            FlowSpec::new(500, [t.uplink(0), t.fabric()]),
            FlowSpec::new(500, [t.uplink(0), t.fabric()]),
        ];
        let out = simulate(&t, &flows, &[], 16);
        assert!((out.makespan_secs - 10.0).abs() < 1e-6, "{}", out.makespan_secs);
        // Both finish at 10 s (equal shares, equal sizes).
        assert!((out.finish_secs[0] - 10.0).abs() < 1e-6);
        assert!((out.finish_secs[1] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn late_arrival_resolves_rates_mid_flight() {
        let t = topo8();
        // Flow A: 1000 bytes on uplink 0 from t=0. Flow B: 250 bytes on
        // the same uplink from t=5. A runs at 100 for 5 s (500 left),
        // then both at 50; B finishes at t=10, A's last 250 run at 100
        // again: A finishes at 12.5 s.
        let flows = vec![
            FlowSpec::new(1000, [t.uplink(0), t.fabric()]),
            FlowSpec::new(250, [t.uplink(0), t.fabric()]).at(5.0),
        ];
        let out = simulate(&t, &flows, &[], 16);
        assert!((out.finish_secs[1] - 10.0).abs() < 1e-5, "{:?}", out.finish_secs);
        assert!((out.finish_secs[0] - 12.5).abs() < 1e-5, "{:?}", out.finish_secs);
        assert!(out.resolves >= 4, "start/finish re-solves must happen");
    }

    #[test]
    fn simultaneous_events_share_one_resolve_per_instant() {
        // F equal flows on disjoint downlinks: all F arrivals fire at
        // t = 0 and all F completions at t = 10 s, so the rates re-solve
        // exactly twice however large F is.
        for f in [1usize, 8, 64] {
            let t = Topology::new(f, 100.0, 50.0);
            let flows: Vec<FlowSpec> =
                (0..f).map(|n| FlowSpec::new(1000, [t.downlink(n), t.fabric()])).collect();
            let out = simulate(&t, &flows, &[], 4 * f);
            assert_eq!(out.resolves, 2, "{f} flows");
            assert_eq!(out.events, 2 * f as u64, "{f} flows: arrivals + completions");
            assert_eq!(out.peak_flows, f);
            assert!(out.finish_secs.iter().all(|&s| (s - 10.0).abs() < 1e-9), "{f} flows");
        }
    }

    #[test]
    fn cancel_mid_transfer_requeues_the_reattempt() {
        let t = topo8();
        // 1000 bytes at 100 B/s = 10 s nominally; crash at 4 s, 2 s
        // detection delay, full re-send: finish = 4 + 2 + 10 = 16 s.
        let flows = vec![FlowSpec::new(1000, [t.uplink(0), t.fabric()])];
        let cancels = vec![CancelSpec { flow: 0, at_secs: 4.0, requeue_delay_secs: 2.0 }];
        let out = simulate(&t, &flows, &cancels, 16);
        assert!((out.finish_secs[0] - 16.0).abs() < 1e-5, "{:?}", out.finish_secs);
        // The first attempt's 400 bytes still crossed the link.
        assert!((out.link_bytes[t.uplink(0) as usize] - 1400.0).abs() < 1.0);
    }

    #[test]
    fn cancel_after_completion_is_a_no_op() {
        let t = topo8();
        let flows = vec![FlowSpec::new(100, [t.uplink(0), t.fabric()])];
        let cancels = vec![CancelSpec { flow: 0, at_secs: 50.0, requeue_delay_secs: 2.0 }];
        let out = simulate(&t, &flows, &cancels, 16);
        assert!((out.finish_secs[0] - 1.0).abs() < 1e-6, "{:?}", out.finish_secs);
    }

    #[test]
    fn zero_byte_flows_finish_instantly() {
        let t = topo8();
        let out = simulate(&t, &[FlowSpec::new(0, [t.uplink(0), t.fabric()])], &[], 4);
        assert_eq!(out.finish_secs[0], 0.0);
        assert_eq!(out.makespan_secs, 0.0);
    }

    #[test]
    fn outcome_is_deterministic() {
        let t = topo8();
        let flows: Vec<FlowSpec> = (0..32)
            .map(|i| {
                FlowSpec::new(100 + 37 * i as u64, [t.uplink(i % 8), t.fabric()])
                    .at((i % 5) as f64 * 0.25)
            })
            .collect();
        let a = simulate(&t, &flows, &[], 64);
        let b = simulate(&t, &flows, &[], 64);
        assert_eq!(a.finish_secs, b.finish_secs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.link_bytes, b.link_bytes);
        assert_eq!(a.link_peak_util, b.link_peak_util);
    }
}
