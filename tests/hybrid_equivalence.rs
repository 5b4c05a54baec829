//! Equivalence gate for the hybrid-fidelity machinery.
//!
//! An explicit all-packet fidelity map must be zero-cost — it must not
//! perturb component ids, RNG draws, or event order, so the telemetry
//! fingerprint stays byte-identical — and lazy materialisation may shift
//! component ids but never the simulated physics.

use catapult::prelude::*;

mod common;

/// Drives a fixed 2-pod probe workload and returns the serialized
/// metrics snapshot.
fn fingerprint(mut cluster: Cluster) -> String {
    let a = NodeAddr::new(0, 0, 1);
    let b = NodeAddr::new(1, 3, 7); // cross-pod: probes traverse the spine
    cluster.add_shell(a);
    cluster.add_shell(b);
    let (a_send, _, _, _) = cluster.connect_pair(a, b);
    schedule_probes(
        &mut cluster,
        a,
        a_send,
        SimTime::ZERO,
        SimDuration::from_micros(50),
        40,
        64,
    );
    cluster.run_to_idle();
    cluster.metrics_snapshot().to_json_pretty()
}

const SEED: u64 = 0xE9_01;

#[test]
fn explicit_all_packet_fidelity_map_is_zero_cost() {
    // Routing the build through the hybrid-aware path with an explicit
    // all-packet map must not register a flow model, shift component
    // ids, or consume extra RNG draws.
    let plain = fingerprint(ClusterBuilder::paper(SEED, 2).build());
    let mapped = fingerprint(
        ClusterBuilder::paper(SEED, 2)
            .fidelity(FidelityMap::all_packet(2))
            .build(),
    );
    common::assert_identical("default vs explicit all-packet map", &plain, &mapped);
}

#[test]
fn lazy_cluster_materializes_only_touched_pods() {
    let mut cluster = ClusterBuilder::paper(7, 4).lazy(true).build();
    assert_eq!(cluster.fabric().materialized_pods(), 0);
    // Spines exist from the start; pods appear on first attach.
    let spine_only = cluster.fabric().switch_count();
    cluster.add_shell(NodeAddr::new(2, 0, 0));
    assert_eq!(cluster.fabric().materialized_pods(), 1);
    assert!(cluster.fabric().is_materialized(2));
    assert!(!cluster.fabric().is_materialized(0));
    let per_pod = cluster.fabric().switch_count() - spine_only;
    cluster.add_shell(NodeAddr::new(0, 1, 3));
    assert_eq!(cluster.fabric().materialized_pods(), 2);
    assert_eq!(cluster.fabric().switch_count(), spine_only + 2 * per_pod);
}

#[test]
fn lazy_all_packet_probes_match_eager_rtt_statistics() {
    // Lazy materialization changes component *ids* (pods register on
    // first touch), so fingerprints differ — but the simulated physics
    // must not: the same probe workload sees identical RTT histograms.
    let eager = fingerprint(ClusterBuilder::paper(SEED, 2).build());
    let lazy = fingerprint(ClusterBuilder::paper(SEED, 2).lazy(true).build());
    let rtt_lines = |dump: &str| -> Vec<String> {
        dump.lines()
            .filter(|l| l.contains("rtt_ns"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        rtt_lines(&eager),
        rtt_lines(&lazy),
        "lazy materialization must not perturb probe latencies"
    );
}

#[test]
fn hybrid_island_runs_and_keeps_island_probes_packet_level() {
    let mut cluster = ClusterBuilder::paper(SEED, 4)
        .packet_island(2)
        .lazy(true)
        .build();
    assert!(
        cluster.flowsim_id().is_some(),
        "hybrid map needs a flow model"
    );
    let a = NodeAddr::new(0, 0, 1);
    let b = NodeAddr::new(1, 3, 7);
    cluster.add_shell(a);
    cluster.add_shell(b);
    let (a_send, _, _, _) = cluster.connect_pair(a, b);
    schedule_probes(
        &mut cluster,
        a,
        a_send,
        SimTime::ZERO,
        SimDuration::from_micros(50),
        40,
        64,
    );
    cluster.run_to_idle();
    let snap = cluster.metrics_snapshot();
    let rtts = snap
        .histogram(&format!("shell/{a}/ltl/rtt_ns"))
        .expect("island probes record RTTs");
    assert_eq!(rtts.count, 40);
    // Flow pods never grew switches.
    assert_eq!(cluster.fabric().materialized_pods(), 2);
}
