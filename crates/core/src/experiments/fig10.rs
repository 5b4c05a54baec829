//! Figure 10: LTL round-trip latency at each datacenter tier versus the
//! Catapult v1 6x8 torus baseline.
//!
//! Probe pairs at L0 (same TOR), L1 (same pod) and L2 (cross-pod) exchange
//! small LTL messages at a low rate; the RTT is measured exactly as the
//! paper does — from frame generation in the sender's LTL engine to
//! receipt of the corresponding ACK.

use dcnet::NodeAddr;
use dcsim::{QueueStats, SimDuration, SimTime};
use serde::Serialize;
use telemetry::Histogram;

use crate::calib::{paper_shape, reachable_hosts, Tier};
use crate::cluster::{Cluster, ClusterBuilder};
use crate::probe::schedule_probes;
use crate::workload::{FleetLoadGen, FleetWorkloadConfig};
use dcnet::{Msg, PortId, Switch, TrafficClass};
use dcsim::Component;
use host::{StartGenerator, TrafficGen, TrafficGenConfig};
use telemetry::HistogramSnapshot;

/// Fig. 10 experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig10Params {
    /// Pods in the fabric (260 reproduces the paper's quarter-million
    /// scale; smaller values run faster with identical L0/L1 numbers).
    pub pods: u16,
    /// Independent sender/receiver pairs per tier.
    pub pairs_per_tier: usize,
    /// Probe messages per pair.
    pub probes_per_pair: u64,
    /// Gap between probes (low rate, for idle latencies).
    pub probe_gap: SimDuration,
    /// Probe payload size.
    pub payload_bytes: usize,
    /// Best-effort background traffic injected through each probe pair's
    /// TOR, in Gb/s (0 = idle measurements, the paper's methodology; the
    /// paper notes L1/L2 numbers "are inevitably affected by other
    /// datacenter traffic").
    pub background_gbps: f64,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for Fig10Params {
    fn default() -> Self {
        Fig10Params {
            pods: 260,
            pairs_per_tier: 4,
            probes_per_pair: 500,
            probe_gap: SimDuration::from_micros(100),
            payload_bytes: 32,
            background_gbps: 0.0,
            seed: 0x0F16_0010,
        }
    }
}

/// One tier's measured latencies.
#[derive(Debug, Clone, Serialize)]
pub struct TierRow {
    /// Tier label ("L0", "L1", "L2").
    pub tier: String,
    /// Reachable hosts at this tier (the x-axis).
    pub reachable_hosts: usize,
    /// Mean RTT in microseconds.
    pub avg_us: f64,
    /// 99.9th percentile RTT.
    pub p999_us: f64,
    /// Maximum observed RTT.
    pub max_us: f64,
    /// Sample count.
    pub samples: usize,
    /// Latency histogram: `(bucket_start_us, count)` with 0.25 us buckets —
    /// the per-tier distributions Figure 10 inlines.
    pub histogram: Vec<(f64, usize)>,
}

/// Torus baseline summary.
#[derive(Debug, Clone, Serialize)]
pub struct TorusRow {
    /// Reachability cap (48).
    pub reachable_hosts: usize,
    /// Nearest-neighbour RTT in microseconds.
    pub nearest_us: f64,
    /// All-pairs average RTT.
    pub avg_us: f64,
    /// Worst-case RTT.
    pub worst_us: f64,
}

/// The full Figure 10 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Result {
    /// One row per tier.
    pub tiers: Vec<TierRow>,
    /// The 6x8 torus comparison.
    pub torus: TorusRow,
}

impl Fig10Result {
    /// Renders the result as the paper-style table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:>12} {:>10} {:>10} {:>10} {:>8}\n",
            "tier", "reachable", "avg(us)", "p99.9(us)", "max(us)", "samples"
        ));
        for r in &self.tiers {
            out.push_str(&format!(
                "{:<8} {:>12} {:>10.2} {:>10.2} {:>10.2} {:>8}\n",
                r.tier, r.reachable_hosts, r.avg_us, r.p999_us, r.max_us, r.samples
            ));
        }
        out.push_str(&format!(
            "{:<8} {:>12} {:>10.2} {:>10.2} {:>10.2} {:>8}\n",
            "torus",
            self.torus.reachable_hosts,
            self.torus.avg_us,
            self.torus.worst_us,
            self.torus.worst_us,
            "-"
        ));
        out
    }
}

fn tier_pairs(tier: Tier, pairs: usize, pods: u16) -> Vec<(NodeAddr, NodeAddr)> {
    match tier {
        Tier::L0 => (0..pairs)
            .map(|i| {
                // Distinct racks so pairs do not interfere.
                let tor = i as u16;
                (NodeAddr::new(0, tor, 0), NodeAddr::new(0, tor, 1))
            })
            .collect(),
        Tier::L1 => (0..pairs)
            .map(|i| {
                let base = 8 + 2 * i as u16; // racks unused by L0 probes
                (NodeAddr::new(0, base, 2), NodeAddr::new(0, base + 1, 2))
            })
            .collect(),
        Tier::L2 => (0..pairs)
            .map(|i| {
                let pod_b = 1 + (i as u16 % (pods - 1).max(1));
                (
                    NodeAddr::new(0, 20 + i as u16, 3),
                    NodeAddr::new(pod_b, 20 + i as u16, 3),
                )
            })
            .collect(),
    }
}

/// Best-effort sink for background flows.
#[derive(Debug, Default)]
struct Blackhole;

impl Component<Msg> for Blackhole {
    fn on_message(&mut self, _msg: Msg, _ctx: &mut dcsim::Context<'_, Msg>) {}
}

/// Pumps best-effort cross-traffic through the TOR serving `near`, between
/// two otherwise-unused host ports of that rack.
fn add_background(cluster: &mut Cluster, near: NodeAddr, gbps: f64) {
    let shape = cluster.fabric().shape();
    let tor = cluster.fabric().tor_switch(near.pod, near.tor);
    let src_h = shape.hosts_per_tor - 2;
    let dst_h = shape.hosts_per_tor - 1;
    let sink = cluster.engine_mut().add_component(Blackhole);
    cluster
        .engine_mut()
        .component_mut::<Switch>(tor)
        .expect("tor exists")
        .connect(PortId(dst_h), sink, PortId(0));
    let cfg = TrafficGenConfig {
        src: NodeAddr::new(near.pod, near.tor, src_h),
        dsts: vec![NodeAddr::new(near.pod, near.tor, dst_h)],
        rate_bps: gbps * 1e9,
        packet_bytes: 1_400,
        count: None,
        class: TrafficClass::BEST_EFFORT,
    };
    let gen = cluster
        .engine_mut()
        .add_component(TrafficGen::new(cfg, (tor, PortId(src_h))));
    cluster
        .engine_mut()
        .schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));
}

/// Simulates one tier's probe pairs on its own cluster and returns the
/// merged RTT row. Tiers use disjoint rack sets, so giving each tier an
/// independent fabric reproduces the shared-fabric measurements while
/// letting the three tiers run on separate threads.
fn run_tier(
    params: &Fig10Params,
    ti: usize,
    tier: Tier,
    trace_capacity: usize,
) -> (TierRow, Option<String>) {
    let shape = paper_shape(params.pods);
    let mut cluster =
        ClusterBuilder::paper(params.seed.wrapping_add(ti as u64), params.pods).build();
    if trace_capacity > 0 {
        cluster.enable_tracing(trace_capacity);
    }
    let pairs = tier_pairs(tier, params.pairs_per_tier, params.pods);
    for (pi, &(a, b)) in pairs.iter().enumerate() {
        cluster.add_shell(a);
        cluster.add_shell(b);
        let (a_send, _, _, _) = cluster.connect_pair(a, b);
        // Stagger pairs so probes do not synchronise.
        let start = SimTime::from_nanos((ti * 17 + pi * 7) as u64 * 1_000);
        schedule_probes(
            &mut cluster,
            a,
            a_send,
            start,
            params.probe_gap,
            params.probes_per_pair,
            params.payload_bytes,
        );
        if params.background_gbps > 0.0 {
            add_background(&mut cluster, a, params.background_gbps);
        }
    }

    if params.background_gbps > 0.0 {
        // Background generators never stop; run to a horizon instead.
        let horizon = SimTime::ZERO
            + params.probe_gap * (params.probes_per_pair + 50)
            + dcsim::SimDuration::from_millis(1);
        cluster.run_until(horizon);
    } else {
        cluster.run_to_idle();
    }

    // One registry snapshot covers every shell; the merged LTL RTT
    // histogram (250 ns buckets, exact percentiles) replaces the old
    // per-shell recorder gathering.
    let snap = cluster.metrics_snapshot();
    let rtts = snap
        .merged_histogram("ltl/rtt_ns")
        .unwrap_or_else(|| Histogram::with_bucket_width(250).snapshot());
    let label = match tier {
        Tier::L0 => "L0",
        Tier::L1 => "L1",
        Tier::L2 => "L2",
    };
    let histogram = rtts
        .buckets
        .iter()
        .map(|&(start_ns, c)| (start_ns as f64 / 1_000.0, c as usize))
        .collect();
    let trace = cluster.tracer().map(|t| t.to_chrome_json());
    let row = TierRow {
        tier: label.to_string(),
        reachable_hosts: reachable_hosts(tier, shape),
        avg_us: rtts.mean / 1_000.0,
        p999_us: rtts.p999.unwrap_or(0) as f64 / 1_000.0,
        max_us: rtts.max.unwrap_or(0) as f64 / 1_000.0,
        samples: rtts.count as usize,
        histogram,
    };
    (row, trace)
}

/// Runs the Figure 10 experiment.
pub fn run(params: &Fig10Params) -> Fig10Result {
    run_traced(params, 0).0
}

/// Runs the Figure 10 experiment with the flight recorder on: each tier's
/// cluster keeps up to `trace_capacity` events (0 disables tracing), and
/// the per-tier Chrome trace-event JSON documents come back alongside the
/// result, in L0/L1/L2 order.
pub fn run_traced(params: &Fig10Params, trace_capacity: usize) -> (Fig10Result, Vec<String>) {
    assert!(params.pods >= 2, "L2 needs at least two pods");
    let tiers = [Tier::L0, Tier::L1, Tier::L2];
    let jobs: Vec<(usize, Tier)> = tiers.iter().copied().enumerate().collect();
    let out = crate::sweep::parallel_map(jobs, |(ti, tier)| {
        run_tier(params, ti, tier, trace_capacity)
    });
    let mut rows = Vec::with_capacity(out.len());
    let mut traces = Vec::new();
    for (row, trace) in out {
        rows.push(row);
        traces.extend(trace);
    }

    let torus = torus::Torus::new(torus::TorusConfig::catapult_v1());
    let (avg, worst) = torus.rtt_statistics();
    let nearest = torus
        .rtt((0, 0), (1, 0))
        .expect("healthy torus neighbours are reachable");
    let result = Fig10Result {
        tiers: rows,
        torus: TorusRow {
            reachable_hosts: torus.node_count(),
            nearest_us: nearest.as_micros_f64(),
            avg_us: avg.as_micros_f64(),
            worst_us: worst.as_micros_f64(),
        },
    };
    (result, traces)
}

/// Fleet-scale (Fig. 10 `--full-scale`) parameters: a lazy 250k-host
/// hybrid fabric with a small packet-fidelity island carrying the probe
/// pairs, and the open-loop fleet workload as flow-level background.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// Pods in the fabric (260 = the paper's quarter-million hosts).
    pub pods: u16,
    /// Pods simulated at packet fidelity (the island under study).
    pub island_pods: u16,
    /// Probe pairs per tier inside the island.
    pub pairs_per_tier: usize,
    /// Probe messages per pair.
    pub probes_per_pair: u64,
    /// Gap between probes.
    pub probe_gap: SimDuration,
    /// Probe payload size.
    pub payload_bytes: usize,
    /// Fleet background workload.
    pub workload: FleetWorkloadConfig,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            pods: 260,
            island_pods: 2,
            pairs_per_tier: 4,
            probes_per_pair: 200,
            probe_gap: SimDuration::from_micros(100),
            payload_bytes: 32,
            workload: FleetWorkloadConfig::default(),
            seed: 0x0F16_0011,
        }
    }
}

/// One tier's RTT percentiles under fleet-scale background load.
#[derive(Debug, Clone, Serialize)]
pub struct FleetTierRow {
    /// Tier label ("L0", "L1", "L2").
    pub tier: String,
    /// Reachable hosts at this tier (the x-axis of the 24 → 250k span).
    pub reachable_hosts: usize,
    /// Mean RTT in microseconds.
    pub avg_us: f64,
    /// Median RTT.
    pub p50_us: f64,
    /// 99.9th percentile RTT.
    pub p999_us: f64,
    /// Maximum observed RTT.
    pub max_us: f64,
    /// Sample count.
    pub samples: usize,
}

/// The flow-level background's conservation ledger for the run.
#[derive(Debug, Clone, Serialize)]
pub struct FleetBackgroundRow {
    /// Bytes the workload generator offered.
    pub bytes_offered: u64,
    /// Bytes the flow model accepted.
    pub bytes_injected: u64,
    /// Bytes drained to their destination pods.
    pub bytes_delivered: u64,
    /// Bytes still in flight at the horizon.
    pub bytes_in_flight: u64,
    /// Bytes rejected by the flow-table bound.
    pub bytes_rejected: u64,
    /// Background flows completed.
    pub flows_completed: u64,
    /// Fleet hosts that sourced at least one flow.
    pub hosts_touched: usize,
}

/// The fleet-scale Fig. 10 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct FleetResult {
    /// Hosts reachable through L2 — the full fabric population.
    pub hosts_reachable: usize,
    /// One row per tier, measured inside the packet island.
    pub tiers: Vec<FleetTierRow>,
    /// Pods holding instantiated switch state (island only, thanks to
    /// lazy materialization).
    pub materialized_pods: usize,
    /// Switches actually instantiated.
    pub switch_count: usize,
    /// ECN marks on the island's switches — nonzero when the boundary
    /// adapter's background pressure is biting.
    pub ecn_marked: u64,
    /// Background-traffic ledger.
    pub background: FleetBackgroundRow,
    /// Events dispatched by the run.
    pub events: u64,
    /// Simulated horizon in nanoseconds.
    pub horizon_ns: u64,
}

impl FleetResult {
    /// Renders the paper-style table plus the fleet footer.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8}\n",
            "tier", "reachable", "avg(us)", "p50(us)", "p99.9(us)", "max(us)", "samples"
        ));
        for r in &self.tiers {
            out.push_str(&format!(
                "{:<8} {:>12} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>8}\n",
                r.tier, r.reachable_hosts, r.avg_us, r.p50_us, r.p999_us, r.max_us, r.samples
            ));
        }
        out.push_str(&format!(
            "hosts reachable {} | pods materialized {} | switches {} | ecn marks {} | bg delivered {} B\n",
            self.hosts_reachable,
            self.materialized_pods,
            self.switch_count,
            self.ecn_marked,
            self.background.bytes_delivered,
        ));
        out
    }
}

/// Probe pairs confined to the packet island.
fn island_pairs(tier: Tier, pairs: usize, island: u16) -> Vec<(NodeAddr, NodeAddr)> {
    match tier {
        Tier::L0 | Tier::L1 => tier_pairs(tier, pairs, island),
        Tier::L2 => (0..pairs)
            .map(|i| {
                let pod_b = 1 + (i as u16 % (island - 1).max(1));
                (
                    NodeAddr::new(0, 20 + i as u16, 3),
                    NodeAddr::new(pod_b, 20 + i as u16, 3),
                )
            })
            .collect(),
    }
}

/// Runs the fleet-scale Fig. 10 experiment: one lazy hybrid cluster with
/// all three tiers' probe pairs in the packet island and the open-loop
/// fleet workload pressing on the spine from the flow pods.
///
/// Returns the dataset and, beside it, what the event queue did to
/// produce it: the dataset's JSON is diffed byte for byte across runs, so
/// cost counters stay out of it.
pub fn run_fleet(params: &FleetParams) -> (FleetResult, QueueStats) {
    assert!(
        params.island_pods >= 2,
        "L2 probes need at least a two-pod island"
    );
    assert!(
        params.pods > params.island_pods,
        "fleet mode needs flow-fidelity pods beyond the island"
    );
    let shape = paper_shape(params.pods);
    let mut cluster = ClusterBuilder::paper(params.seed, params.pods)
        .packet_island(params.island_pods)
        .lazy(true)
        .build();

    // Probe pairs: all three tiers share the island, disjoint rack sets.
    let tiers = [Tier::L0, Tier::L1, Tier::L2];
    let mut senders: Vec<Vec<NodeAddr>> = vec![Vec::new(); tiers.len()];
    for (ti, &tier) in tiers.iter().enumerate() {
        for (pi, &(a, b)) in island_pairs(tier, params.pairs_per_tier, params.island_pods)
            .iter()
            .enumerate()
        {
            cluster.add_shell(a);
            cluster.add_shell(b);
            let (a_send, _, _, _) = cluster.connect_pair(a, b);
            let start = SimTime::from_nanos((ti * 17 + pi * 7) as u64 * 1_000);
            schedule_probes(
                &mut cluster,
                a,
                a_send,
                start,
                params.probe_gap,
                params.probes_per_pair,
                params.payload_bytes,
            );
            senders[ti].push(a);
        }
    }

    // The open-loop fleet workload over the flow pods.
    let flowsim = cluster
        .flowsim_id()
        .expect("hybrid fidelity map registers a flow model");
    let fidelity = cluster.fabric().fidelity().clone();
    let gen = cluster.engine_mut().add_component(FleetLoadGen::new(
        params.workload.clone(),
        shape,
        &fidelity,
        flowsim,
    ));
    cluster
        .engine_mut()
        .schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));

    // The workload generator never stops; run to a horizon that lets the
    // last probe's ACK land.
    let horizon = SimTime::ZERO
        + params.probe_gap * (params.probes_per_pair + 50)
        + SimDuration::from_millis(1);
    let events = cluster.run_until(horizon);

    let snap = cluster.metrics_snapshot();
    let rows = tiers
        .iter()
        .enumerate()
        .map(|(ti, &tier)| {
            let parts: Vec<&HistogramSnapshot> = senders[ti]
                .iter()
                .filter_map(|a| snap.histogram(&format!("shell/{a}/ltl/rtt_ns")))
                .collect();
            let rtts = HistogramSnapshot::merged(parts);
            FleetTierRow {
                tier: match tier {
                    Tier::L0 => "L0",
                    Tier::L1 => "L1",
                    Tier::L2 => "L2",
                }
                .to_string(),
                reachable_hosts: reachable_hosts(tier, shape),
                avg_us: rtts.mean / 1_000.0,
                p50_us: rtts.p50.unwrap_or(0) as f64 / 1_000.0,
                p999_us: rtts.p999.unwrap_or(0) as f64 / 1_000.0,
                max_us: rtts.max.unwrap_or(0) as f64 / 1_000.0,
                samples: rtts.count as usize,
            }
        })
        .collect();

    let offered = cluster
        .component::<FleetLoadGen>(gen)
        .map(|g| g.bytes_offered())
        .unwrap_or(0);
    let fs = cluster.flowsim().expect("flow model registered");
    let ledger = FleetBackgroundRow {
        bytes_offered: offered,
        bytes_injected: fs.bytes_injected(),
        bytes_delivered: fs.bytes_delivered(),
        bytes_in_flight: fs.bytes_in_flight(),
        bytes_rejected: fs.bytes_rejected(),
        flows_completed: fs.flows_completed(),
        hosts_touched: cluster
            .component::<FleetLoadGen>(gen)
            .map(|g| g.hosts().hosts_touched())
            .unwrap_or(0),
    };
    let result = FleetResult {
        hosts_reachable: reachable_hosts(Tier::L2, shape),
        tiers: rows,
        materialized_pods: cluster.fabric().materialized_pods(),
        switch_count: cluster.fabric().switch_count(),
        ecn_marked: snap.sum_counters("ecn_marked"),
        background: ledger,
        events,
        horizon_ns: cluster.now().as_nanos(),
    };
    (result, cluster.engine().queue_stats())
}
