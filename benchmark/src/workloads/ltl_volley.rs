//! `ltl_volley`: Figure 10 on the all-packet fabric, closed loop.

use super::*;

/// Probe pairs per tier.
const PAIRS_PER_TIER: usize = 8;
/// Round trips each pair completes.
const ROUND_TRIPS: u64 = 8_000;
/// Probe payload: the paper's small-message size and up, drawn per pair
/// from the seed. The spread is a few nanoseconds of serialization — far
/// inside the accuracy gate, and free in host time — but without it the
/// median of 384,000 round trips is the same nanosecond on every seed.
const PAYLOAD_BYTES: std::ops::RangeInclusive<u16> = 32..=64;
/// Pods in the fabric.
const PODS: u16 = 2;

pub const WORKLOAD: Workload = Workload {
    name: "ltl_volley",
    why: "smallest frames on empty queues: the fixed per-frame cost of dcsim.engine, dcnet.switch \
          and the shell.shell/shell.ltl fast path is nearly all the work; retransmission, \
          congestion control, flowsim, apps and haas do nothing",
    load: "closed loop, 24 pairs (8 per tier L0/L1/L2), one 32-64-byte probe outstanding per pair",
    op: "LTL round trip (probe out, reply back)",
    build,
    // What the program's own flight recorder costs when it is on.
    comparison: Some(Comparison {
        label: "ltl_volley:flight_recorder",
        metric: "telemetry.trace.overhead_pct",
        build: build_flight_recorded,
        figure: |plain, recorded| (plain - recorded) / plain * 100.0,
    }),
    setup_ns_metric: None,
    ns_per_op_metric: None,
};

struct Volley {
    cluster: Cluster,
    tiers: Tiers,
    initiators: Vec<ComponentId>,
    warm_done: u64,
    warm_at: SimTime,
    timed_events: u64,
}

/// Both endpoints of every pair, per tier.
type Tiers = [Vec<NodeAddr>; 3];

/// The populated, connected cluster with its volleys kicked off — also
/// what the telemetry probes walk.
pub fn build_cluster(seed: u64) -> (Cluster, Tiers, Vec<ComponentId>) {
    let mut cluster = ClusterBuilder::paper(seed, PODS).build();
    let mut picker = SlotPicker::new(seed, cluster.fabric().shape());
    let mut tiers: Tiers = Default::default();
    let mut initiators = Vec::new();
    for (ti, (tier, _, _)) in PAPER_RTT_US.iter().enumerate() {
        for _ in 0..PAIRS_PER_TIER {
            let pair = picker.pair(*tier, PODS);
            let bytes = PAYLOAD_BYTES.start() + picker.index(PAYLOAD_BYTES.len() as u16);
            let payload = Bytes::from(vec![0xA5u8; bytes as usize]);
            initiators.push(install_volley(&mut cluster, pair, &payload, ROUND_TRIPS));
            tiers[ti].extend([pair.0, pair.1]);
        }
    }
    (cluster, tiers, initiators)
}

fn rig((cluster, tiers, initiators): (Cluster, Tiers, Vec<ComponentId>)) -> Box<dyn Rig> {
    Box::new(Volley {
        cluster,
        tiers,
        initiators,
        warm_done: 0,
        warm_at: SimTime::ZERO,
        timed_events: 0,
    })
}

fn build(seed: u64) -> Box<dyn Rig> {
    rig(build_cluster(seed))
}

/// The same workload with the program's own flight recorder switched on
/// (`Cluster::enable_tracing`): the traced pass compares it with the
/// plain run to price `telemetry.trace`.
fn build_flight_recorded(seed: u64) -> Box<dyn Rig> {
    let mut parts = build_cluster(seed);
    parts.0.enable_tracing(1 << 16);
    rig(parts)
}

impl Rig for Volley {
    fn warmup(&mut self) {
        self.cluster.run_for(WARMUP);
        self.warm_done = round_trips_done(&self.cluster, &self.initiators);
        self.warm_at = self.cluster.now();
    }

    fn attach_observer(&mut self) {
        observe(&mut self.cluster);
    }

    fn timed(&mut self) {
        self.timed_events = self.cluster.run_to_idle();
    }

    fn finish(self: Box<Self>) -> Outcome {
        let cluster = &self.cluster;
        let snap = cluster.metrics_snapshot();
        let attempted = ROUND_TRIPS * self.initiators.len() as u64;
        let done = round_trips_done(cluster, &self.initiators);
        let sim_ns = (cluster.now() - self.warm_at).as_nanos();
        let mut violations = Vec::new();
        let mut notes = Vec::new();

        // Conservation: every message submitted was delivered exactly once.
        let delivered = snap.sum_counters("ltl/msgs_delivered");
        let sent = snap.sum_counters("ltl/data_sent");
        if delivered != 2 * attempted || sent != delivered {
            violations.push(format!(
                "conservation: {attempted} round trips need {} messages, sent {sent}, delivered {delivered}",
                2 * attempted
            ));
        }
        // The fast path must be the only path taken.
        for quiet in [
            "ltl/retransmits",
            "ltl/timeouts",
            "dropped",
            "ecn_marked",
            "pauses_sent",
        ] {
            let n = snap.sum_counters(quiet);
            if n != 0 {
                violations.push(format!("{quiet} reads {n} on an idle fabric (must be 0)"));
            }
        }
        // Accuracy against the paper's Figure 10 means.
        let mut all = Vec::new();
        for (addrs, (_, label, paper)) in self.tiers.iter().zip(PAPER_RTT_US) {
            let rtts = merged_rtts(&snap, addrs);
            let mean_us = rtts.mean / 1_000.0;
            let err = paper_err_pct(mean_us, paper);
            notes.push(format!(
                "{label}: mean RTT {mean_us:.3} us vs paper {paper} us, paper_err_pct {err:+.2} ({} samples)",
                rtts.count
            ));
            if err.abs() > PAPER_TOLERANCE_PCT {
                violations.push(format!(
                    "{label} mean RTT {mean_us:.3} us is {err:+.2}% off the paper's {paper} us"
                ));
            }
            all.extend_from_slice(rtts.samples());
        }

        let mut counters = Vec::new();
        transport_counters(&[&snap], sim_ns, &mut counters);
        counters.push(("telemetry.registry.paths", snap.len() as f64));
        Outcome {
            ops: done - self.warm_done,
            attempted,
            failed: attempted - done,
            sim_ns,
            events: self.timed_events,
            latency: Latency::Samples(all),
            fingerprint: fingerprint(&snap.to_json()),
            counters,
            violations,
            notes,
            shards: 1,
            workers: 1,
            observed: observed(cluster),
        }
    }
}
