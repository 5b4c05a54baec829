//! Strict-priority isolation: heavy best-effort background traffic through
//! the same switches must barely move LTL latencies, because LTL rides a
//! higher, lossless traffic class — the property that lets the paper
//! measure microsecond RTTs on a network shared with everything else.

use catapult::telemetry::Histogram;
use catapult::{probe::schedule_probes, ClusterBuilder};
use dcnet::{Msg, NodeAddr, PortId, Switch, TrafficClass};
use dcsim::{SimDuration, SimTime};
use host::{StartGenerator, TrafficGen, TrafficGenConfig};

/// L0 LTL RTT with `background_gbps` of best-effort cross-traffic pumped
/// through the same TOR.
fn l0_rtt_under_load(background_gbps: f64, seed: u64) -> (Histogram<u32>, u64) {
    let mut cluster = ClusterBuilder::paper(seed, 1).build();
    let a = NodeAddr::new(0, 0, 0);
    let b = NodeAddr::new(0, 0, 1);
    cluster.add_shell(a);
    cluster.add_shell(b);
    let (a_send, _, _, _) = cluster.connect_pair(a, b);

    if background_gbps > 0.0 {
        // Cross-traffic enters the TOR on unused host ports and leaves on
        // other unused host ports, crossing the same crossbar. Endpoints
        // are sinks.
        #[derive(Debug, Default)]
        struct Sink;
        impl dcsim::Component<Msg> for Sink {
            fn on_message(&mut self, _msg: Msg, _ctx: &mut dcsim::Context<'_, Msg>) {}
        }
        let tor = cluster.fabric().tor_switch(0, 0);
        for (src_h, dst_h) in [(4u16, 5u16), (6, 7), (8, 9), (10, 11)] {
            let sink = cluster.engine_mut().add_component(Sink);
            cluster
                .engine_mut()
                .component_mut::<Switch>(tor)
                .expect("tor exists")
                .connect(PortId(dst_h), sink, PortId(0));
            let cfg = TrafficGenConfig {
                src: NodeAddr::new(0, 0, src_h),
                dsts: vec![NodeAddr::new(0, 0, dst_h)],
                rate_bps: background_gbps / 4.0 * 1e9,
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
    }

    schedule_probes(
        &mut cluster,
        a,
        a_send,
        SimTime::from_micros(50),
        SimDuration::from_micros(50),
        200,
        32,
    );
    cluster.run_until(SimTime::from_millis(15));
    let out = cluster.shell(a).ltl().rtts().clone();
    let tor = cluster.fabric().tor_switch(0, 0);
    let marked = cluster
        .engine()
        .component::<Switch>(tor)
        .expect("tor exists")
        .stats_view()
        .tx_frames;
    (out, marked)
}

#[test]
fn ltl_latency_shrugs_off_best_effort_background_load() {
    let (idle, _) = l0_rtt_under_load(0.0, 71);
    let (loaded, tor_tx) = l0_rtt_under_load(30.0, 71);
    assert_eq!(idle.count(), 200);
    assert_eq!(loaded.count(), 200);
    assert!(
        tor_tx > 1_000,
        "background actually flowed: {tor_tx} frames"
    );

    let idle_avg = idle.mean();
    let loaded_avg = loaded.mean();
    // Strict priority: the loaded average may pick up at most one
    // best-effort serialization time (~300ns) of head-of-line blocking.
    assert!(
        loaded_avg < idle_avg + 400.0,
        "LTL avg degraded: idle {idle_avg}ns loaded {loaded_avg}ns"
    );
    let idle_p99 = idle.percentile(99.0).unwrap();
    let loaded_p99 = loaded.percentile(99.0).unwrap();
    assert!(
        loaded_p99 < idle_p99 + 800,
        "LTL p99 degraded: idle {idle_p99}ns loaded {loaded_p99}ns"
    );
}
