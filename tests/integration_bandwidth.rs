//! Hierarchy oversubscription: "node-to-node bandwidth is greatest between
//! nodes that share a L0 switch and least between pairs connected via L2."
//! Same-TOR transfers run at the 40 Gb/s line rate; several racks pushing
//! through their shared pod uplink contend and each gets less.

use bytes::Bytes;
use catapult::ClusterBuilder;
use dcnet::{Msg, NodeAddr};
use dcsim::{Component, Context, SimTime};
use shell::{LtlDeliver, LtlSend};

#[derive(Debug, Default)]
struct ByteSink {
    bytes: usize,
    first: Option<SimTime>,
    last: SimTime,
}

impl Component<Msg> for ByteSink {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Ok(d) = msg.downcast::<LtlDeliver>() {
            self.bytes += d.payload.len();
            self.first.get_or_insert(ctx.now());
            self.last = ctx.now();
        }
    }
}

impl ByteSink {
    fn goodput_gbps(&self) -> f64 {
        let span = self
            .last
            .saturating_since(self.first.unwrap_or(SimTime::ZERO));
        self.bytes as f64 * 8.0 / span.as_secs_f64() / 1e9
    }
}

/// Runs `pairs` bulk transfers and returns per-pair goodput (Gb/s).
/// `cross_rack` selects whether pairs share a TOR or cross the pod uplink.
fn bulk_transfer(pairs: usize, cross_rack: bool, seed: u64) -> Vec<f64> {
    let mut cluster = ClusterBuilder::paper(seed, 1).build();
    let mut sinks = Vec::new();
    for i in 0..pairs {
        let (src, dst) = if cross_rack {
            // All sources in distinct racks, all destinations in rack 30+:
            // every transfer crosses the shared TOR->agg uplinks.
            (
                NodeAddr::new(0, i as u16, 0),
                NodeAddr::new(0, 30, i as u16),
            )
        } else {
            (NodeAddr::new(0, i as u16, 0), NodeAddr::new(0, i as u16, 1))
        };
        cluster.add_shell(src);
        if cluster.shell_id(dst).is_none() {
            cluster.add_shell(dst);
        }
        let (conn, _, _, _) = cluster.connect_pair(src, dst);
        let sink = cluster.engine_mut().add_component(ByteSink::default());
        cluster.set_consumer(dst, sink);
        let shell_id = cluster.shell_id(src).expect("src populated");
        // 40 x 50KB messages = 2 MB per pair.
        for k in 0..40u64 {
            cluster.engine_mut().schedule(
                SimTime::from_nanos(k), // all at once: bulk transfer
                shell_id,
                Msg::LtlSend(LtlSend {
                    conn,
                    vc: 0,
                    payload: Bytes::from(vec![0u8; 50_000]),
                }),
            );
        }
        sinks.push(sink);
    }
    cluster.run_to_idle();
    sinks
        .iter()
        .map(|&s| {
            cluster
                .engine()
                .component::<ByteSink>(s)
                .expect("sink exists")
                .goodput_gbps()
        })
        .collect()
}

#[test]
fn same_tor_transfers_run_at_line_rate() {
    let rates = bulk_transfer(3, false, 81);
    for (i, r) in rates.iter().enumerate() {
        assert!(
            (30.0..41.0).contains(r),
            "pair {i} goodput {r} Gb/s not near 40G line rate"
        );
    }
}

#[test]
fn cross_rack_transfers_contend_for_the_destination_rack() {
    // All destinations sit in rack 30, so four transfers squeeze through
    // that TOR's single downlink path via the agg: each gets a fraction.
    let rates = bulk_transfer(4, true, 82);
    let total: f64 = rates.iter().sum();
    assert!(
        total < 45.0,
        "aggregate {total} Gb/s through one destination rack"
    );
    for (i, r) in rates.iter().enumerate() {
        assert!(*r < 30.0, "pair {i} should see contention, got {r} Gb/s");
        assert!(*r > 2.0, "pair {i} starved: {r} Gb/s");
    }
}
