//! `sharded_volley`: the multi-pod closed-loop volley on the conservative
//! sharded engine.

use super::*;

/// Round trips each pair completes.
const ROUND_TRIPS: u64 = 500;
/// Message size: segments into several MTU-sized LTL frames.
const PAYLOAD_BYTES: usize = 4 * 1024;
/// Fabric: 4 pods x 4 racks x 6 hosts behind 2 spines.
const SHAPE: FabricShape = FabricShape {
    hosts_per_tor: 6,
    tors_per_pod: 4,
    pods: 4,
    spines: 2,
};

pub const WORKLOAD: Workload = Workload {
    name: "sharded_volley",
    why: "the only workload where dcsim.sharded (windows, barriers, mailboxes) does anything; \
          fingerprints are shard-count-invariant, so sim_* compare across machines while \
          ops_per_sec is this machine's parallel number",
    load: "closed loop, 40 pairs (8 rack-crossing + 2 pod-crossing per pod), one 4 KiB message \
           outstanding per pair",
    op: "message round trip (4 KiB out, 4 KiB back)",
    build: |seed| build_sharded(seed, default_shards()),
    // The same build on one shard: the fingerprint baseline, and what
    // sharding buys on this machine's cores.
    comparison: Some(Comparison {
        label: "sharded_volley:1shard",
        metric: "dcsim.sharded.speedup_vs_1shard",
        build: |seed| build_sharded(seed, 1),
        figure: |sharded, one| sharded / one,
    }),
    setup_ns_metric: None,
    ns_per_op_metric: None,
};

/// Shards the measured run uses: one per core, at least 2 (so the
/// sharded machinery always runs), at most 4 (the fabric's pod count).
fn default_shards() -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.clamp(2, 4) as u32
}

struct ShardedVolley {
    cluster: Cluster,
    initiators: Vec<ComponentId>,
    warm_done: u64,
    warm_at: SimTime,
    timed_events: u64,
}

/// The pair layout of `perf`'s `parallel_cluster`: every shard owns
/// plenty of local work per window and every partition cut carries
/// traffic. The seed drives the fabric's jitter streams, not the layout.
fn pairs() -> Vec<(NodeAddr, NodeAddr)> {
    let mut pairs = Vec::new();
    for pod in 0..SHAPE.pods {
        for host in 0..4 {
            pairs.push((
                NodeAddr::new(pod, host % 2, host),
                NodeAddr::new(pod, 2 + host % 2, host),
            ));
            pairs.push((
                NodeAddr::new(pod, (host + 1) % 2, host),
                NodeAddr::new(pod, 2 + (host + 1) % 2, host),
            ));
        }
        pairs.push((NodeAddr::new(pod, 0, 4), NodeAddr::new((pod + 1) % 4, 1, 4)));
        pairs.push((NodeAddr::new(pod, 2, 4), NodeAddr::new((pod + 2) % 4, 3, 4)));
    }
    pairs
}

/// Builds the workload on `shards` shards (1 = the fingerprint baseline
/// of the traced pass).
fn build_sharded(seed: u64, shards: u32) -> Box<dyn Rig> {
    let mut cluster = ClusterBuilder::new(seed)
        .fabric_config(&calib::fabric_config(SHAPE))
        .shell_config(calib::shell_config())
        .build();
    let payload = Bytes::from(vec![0xA5u8; PAYLOAD_BYTES]);
    let initiators = pairs()
        .into_iter()
        .map(|pair| install_volley(&mut cluster, pair, &payload, ROUND_TRIPS))
        .collect();
    let got = cluster.shard(shards);
    assert_eq!(got, shards, "16 racks accommodate {shards} shards");
    Box::new(ShardedVolley {
        cluster,
        initiators,
        warm_done: 0,
        warm_at: SimTime::ZERO,
        timed_events: 0,
    })
}

impl Rig for ShardedVolley {
    fn warmup(&mut self) {
        self.cluster.run_for(WARMUP);
        self.warm_done = round_trips_done(&self.cluster, &self.initiators);
        self.warm_at = self.cluster.now();
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

        let delivered = snap.sum_counters("ltl/msgs_delivered");
        if delivered != 2 * attempted {
            violations.push(format!(
                "conservation: {attempted} round trips need {} messages, delivered {delivered}",
                2 * attempted
            ));
        }

        let latencies = self
            .initiators
            .iter()
            .filter_map(|&id| cluster.component::<Initiator>(id))
            .flat_map(|i| i.round_trips_ns.iter().copied())
            .collect();

        let sync = cluster.sync_stats();
        let rounds = cluster.sync_rounds();
        let total = |f: fn(&ShardSyncStats) -> u64| sync.iter().map(f).sum::<u64>() as f64;
        let mut counters = vec![
            ("dcsim.sharded.sync_rounds", rounds as f64),
            ("dcsim.sharded.windows_run", total(|s| s.windows_run)),
            (
                "dcsim.sharded.windows_fast_forwarded",
                total(|s| s.windows_fast_forwarded),
            ),
            (
                "dcsim.sharded.window_extensions",
                total(|s| s.window_extensions),
            ),
            ("dcsim.sharded.cut_events", total(|s| s.cut_events)),
            (
                "dcsim.sharded.events_per_round",
                self.timed_events as f64 / rounds.max(1) as f64,
            ),
        ];
        transport_counters(&[&snap], sim_ns, &mut counters);
        Outcome {
            ops: done - self.warm_done,
            attempted,
            failed: attempted - done,
            sim_ns,
            events: self.timed_events,
            latency: Latency::Samples(latencies),
            fingerprint: fingerprint(&snap.to_json()),
            counters,
            violations,
            notes: vec![format!(
                "unvalidated (no paper reference for 4 KiB volleys); {} shards on {} workers, {rounds} sync rounds",
                cluster.shard_count(),
                cluster.effective_workers()
            )],
            shards: cluster.shard_count(),
            workers: cluster.effective_workers() as u32,
            observed: None,
        }
    }
}
