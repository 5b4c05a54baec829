//! LTL retransmission under injected egress loss: the transport's
//! exactly-once contract must hold for loss rates up to 10% — every
//! message is delivered exactly once to the consumer, retries stay
//! bounded, and the connection is never declared dead.

use bytes::Bytes;
use catapult::ClusterBuilder;
use dcnet::{Msg, NodeAddr};
use dcsim::SimTime;
use shell::{LtlSend, ShellCmd};

#[path = "common/collector.rs"]
mod collector;
use collector::Collector;

/// Runs `total` messages across one rack with egress-loss injection at
/// `rate` on the sender; returns (delivered payloads, sender retransmits,
/// sender conn failures).
fn run_lossy(seed: u64, rate: f64, total: u64) -> (Vec<Bytes>, u64, u64) {
    let mut cluster = ClusterBuilder::paper(seed, 1).build();
    let a = NodeAddr::new(0, 0, 0);
    let b = NodeAddr::new(0, 0, 1);
    let a_id = cluster.add_shell(a);
    cluster.add_shell(b);
    let (a_send, _b_send, _, _) = cluster.connect_pair(a, b);
    let collector = cluster.engine_mut().add_component(Collector::default());
    cluster.set_consumer(b, collector);

    cluster.engine_mut().schedule(
        SimTime::ZERO,
        a_id,
        Msg::custom(ShellCmd::SetLtlLossRate(rate)),
    );
    for k in 0..total {
        cluster.engine_mut().schedule(
            SimTime::from_micros(10 + k * 200),
            a_id,
            Msg::LtlSend(LtlSend {
                conn: a_send,
                vc: 0,
                payload: Bytes::from(format!("msg-{k:04}")),
            }),
        );
    }
    cluster.run_to_idle();

    let stats = cluster.shell(a).ltl().stats_view();
    let got = cluster
        .engine()
        .component::<Collector>(collector)
        .expect("collector registered")
        .payloads
        .clone();
    (got, stats.retransmits, stats.conn_failures)
}

#[test]
fn exactly_once_delivery_up_to_ten_percent_loss() {
    let total = 150u64;
    for (seed, rate) in [(21, 0.01), (22, 0.05), (23, 0.10)] {
        let (got, retransmits, conn_failures) = run_lossy(seed, rate, total);

        // Exactly once: every message arrives, none twice.
        assert_eq!(
            got.len() as u64,
            total,
            "rate {rate}: {} of {total} delivered",
            got.len()
        );
        let mut unique: Vec<&Bytes> = got.iter().collect();
        unique.sort();
        unique.dedup();
        assert_eq!(
            unique.len() as u64,
            total,
            "rate {rate}: duplicate deliveries reached the consumer"
        );

        // Bounded retries: expected extra transmissions are roughly
        // rate/(1-rate) per message (plus lost ACK re-sends); at 10%
        // loss that is well under one retransmit per two messages.
        assert!(
            retransmits <= total,
            "rate {rate}: {retransmits} retransmits for {total} messages"
        );
        assert_eq!(
            conn_failures, 0,
            "rate {rate}: transient loss must not kill the connection"
        );
        if rate >= 0.05 {
            assert!(
                retransmits > 0,
                "rate {rate}: injected loss should force some retransmission"
            );
        }
    }
}

#[test]
fn lossless_path_never_retransmits() {
    let (got, retransmits, conn_failures) = run_lossy(24, 0.0, 50);
    assert_eq!(got.len(), 50);
    assert_eq!(retransmits, 0);
    assert_eq!(conn_failures, 0);
}
