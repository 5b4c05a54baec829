//! `fleet_hybrid`: the quarter-million-host hybrid fabric of
//! `fig10 --full-scale`, stretched to a longer horizon.

use host::StartGenerator;

use super::*;

/// Pods in the fabric: 260 x 960 hosts, the paper's ~250k.
const PODS: u16 = 260;
/// Pods simulated packet by packet; the rest are flow-level background.
const ISLAND_PODS: u16 = 2;
/// Probe pairs per tier inside the island.
const PAIRS_PER_TIER: usize = 4;
/// Probes per pair: 12 pairs x 1,000 = 12,000 latency samples.
const PROBES_PER_PAIR: u64 = 1_000;
/// Gap between a pair's probes; sets the simulated horizon.
const PROBE_GAP: SimDuration = SimDuration::from_millis(2);
const PAYLOAD_BYTES: usize = 32;

pub const WORKLOAD: Workload = Workload {
    name: "fleet_hybrid",
    why: "core.workload (FleetLoadGen) and dcnet.flowsim dominate and the switch/LTL path is \
          nearly idle; with a lazy 260-pod topology and 250k-host tables it is the workload where \
          setup_s and peak_heap_bytes are the headline",
    load: "open loop: 2M synthetic users (default FleetWorkloadConfig, diurnal + bursts) into \
           FlowSim, plus 12 island probe pairs sending one 32-byte probe every 2 ms",
    op: "background flow completed, or probe round trip",
    build,
    comparison: None,
    setup_ns_metric: None,
    ns_per_op_metric: None,
};

struct Fleet {
    cluster: Cluster,
    gen: ComponentId,
    /// Probe senders per tier.
    senders: [Vec<NodeAddr>; 3],
    receivers: Vec<NodeAddr>,
    horizon: SimTime,
    warm_ops: u64,
    warm_at: SimTime,
    timed_events: u64,
}

impl Fleet {
    fn probes_delivered(&self) -> u64 {
        self.receivers
            .iter()
            .map(|&b| self.cluster.shell(b).ltl().stats_view().msgs_delivered)
            .sum()
    }

    fn flows_completed(&self) -> u64 {
        self.cluster.flowsim().map_or(0, |fs| fs.flows_completed())
    }
}

fn build(seed: u64) -> Box<dyn Rig> {
    let mut cluster = ClusterBuilder::paper(seed, PODS)
        .packet_island(ISLAND_PODS)
        .lazy(true)
        .build();
    let shape = cluster.fabric().shape();
    let mut picker = SlotPicker::new(seed, shape);
    let mut senders: [Vec<NodeAddr>; 3] = Default::default();
    let mut receivers = Vec::new();
    let mut stagger = 0u64;
    for (ti, (tier, _, _)) in PAPER_RTT_US.iter().enumerate() {
        for _ in 0..PAIRS_PER_TIER {
            let (a, b) = picker.pair(*tier, ISLAND_PODS);
            cluster.add_shell(a);
            cluster.add_shell(b);
            let (a_send, _, _, _) = cluster.connect_pair(a, b);
            // Staggered starts keep the pairs' probes from synchronising.
            stagger += 7_000;
            schedule_probes(
                &mut cluster,
                a,
                a_send,
                SimTime::from_nanos(stagger),
                PROBE_GAP,
                PROBES_PER_PAIR,
                PAYLOAD_BYTES,
            );
            senders[ti].push(a);
            receivers.push(b);
        }
    }
    let flowsim = cluster
        .flowsim_id()
        .expect("a hybrid fidelity map registers the flow model");
    let fidelity = cluster.fabric().fidelity().clone();
    let gen = cluster.engine_mut().add_component(FleetLoadGen::new(
        FleetWorkloadConfig::default(),
        shape,
        &fidelity,
        flowsim,
    ));
    cluster
        .engine_mut()
        .schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));
    // The generator never stops: run to a horizon that lets the last
    // probe's ACK land.
    let horizon = SimTime::ZERO + PROBE_GAP * (PROBES_PER_PAIR + 2) + SimDuration::from_millis(1);
    Box::new(Fleet {
        cluster,
        gen,
        senders,
        receivers,
        horizon,
        warm_ops: 0,
        warm_at: SimTime::ZERO,
        timed_events: 0,
    })
}

impl Rig for Fleet {
    fn warmup(&mut self) {
        self.cluster.run_for(WARMUP);
        self.warm_ops = self.probes_delivered() + self.flows_completed();
        self.warm_at = self.cluster.now();
    }

    fn attach_observer(&mut self) {
        observe(&mut self.cluster);
    }

    fn timed(&mut self) {
        self.timed_events = self.cluster.run_until(self.horizon);
    }

    fn finish(self: Box<Self>) -> Outcome {
        let cluster = &self.cluster;
        let snap = cluster.metrics_snapshot();
        let fs = cluster.flowsim().expect("flow model registered");
        let probes = PROBES_PER_PAIR * (3 * PAIRS_PER_TIER) as u64;
        let delivered = self.probes_delivered();
        let flows = fs.flows_completed();
        let flows_started = snap.counter("flowsim/flows_started").unwrap_or(0);
        let sim_ns = (cluster.now() - self.warm_at).as_nanos();
        let mut violations = Vec::new();
        let mut notes = Vec::new();

        // Conservation of background bytes.
        let (inj, del, fly) = (
            fs.bytes_injected(),
            fs.bytes_delivered(),
            fs.bytes_in_flight(),
        );
        if inj != del + fly {
            violations.push(format!(
                "flowsim conservation: injected {inj} != delivered {del} + in flight {fly}"
            ));
        }
        if fs.bytes_rejected() != 0 {
            violations.push(format!(
                "flowsim rejected {} bytes: the flow table overflowed",
                fs.bytes_rejected()
            ));
        }
        let offered = cluster
            .component::<FleetLoadGen>(self.gen)
            .map_or(0, |g| g.bytes_offered());
        notes.push(format!(
            "background: offered {offered} B, injected {inj} B, {flows}/{flows_started} flows completed, {} pods materialized of {PODS}, {} switches",
            cluster.fabric().materialized_pods(),
            cluster.fabric().switch_count(),
        ));

        // Accuracy: the island's L2 round trip under fleet pressure.
        let mut all = Vec::new();
        for (addrs, (tier, label, paper)) in self.senders.iter().zip(PAPER_RTT_US) {
            let rtts = merged_rtts(&snap, addrs);
            let mean_us = rtts.mean / 1_000.0;
            let err = paper_err_pct(mean_us, paper);
            notes.push(format!(
                "{label}: mean RTT {mean_us:.3} us vs paper {paper} us, paper_err_pct {err:+.2} ({} samples)",
                rtts.count
            ));
            if tier == Tier::L2 && err.abs() > PAPER_TOLERANCE_PCT {
                violations.push(format!(
                    "L2 mean RTT {mean_us:.3} us is {err:+.2}% off the paper's {paper} us"
                ));
            }
            all.extend_from_slice(rtts.samples());
        }

        let mut counters = vec![
            ("dcnet.flowsim.ticks", fs.ticks() as f64),
            ("dcnet.flowsim.flows_completed", flows as f64),
            ("dcnet.flowsim.bytes_rejected", fs.bytes_rejected() as f64),
            (
                "dcnet.topology.materialized_pods",
                cluster.fabric().materialized_pods() as f64,
            ),
            (
                "dcnet.topology.switch_count",
                cluster.fabric().switch_count() as f64,
            ),
        ];
        transport_counters(&[&snap], sim_ns, &mut counters);
        Outcome {
            ops: delivered + flows - self.warm_ops,
            attempted: probes + flows_started,
            failed: probes - delivered,
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
