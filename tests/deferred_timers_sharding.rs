//! `Cluster::shard` / `Cluster::unshard` in mid-transfer, with deferred
//! free-timers outstanding.
//!
//! A switch port's free-timer may exist only as a reserved key inside
//! the port (`FreeTimer`, private to `dcnet`), invisible to the queue
//! that `partition` and `merge` re-deal. Both must leave the run a pure
//! function of the seed: `partition` keeps the keys pending events
//! already have, so a reservation keeps comparing against them as its
//! timer would have; `merge` renumbers the queue, and a routed
//! reservation key — larger than any fifo key — then compares as last at
//! its instant, whatever the shard count was. Here 32 KiB messages keep
//! switch ports serializing back to back (every arrival lands exactly on
//! a `busy_until`), and the cluster is sharded and unsharded at instants
//! inside those transfers.

use bytes::Bytes;
use catapult::prelude::*;
use shell::{LtlDeliver, LtlSend};

mod common;

const MESSAGE_BYTES: usize = 32 * 1024;

/// Answers every delivery with another 32 KiB message, `remaining` times.
#[derive(Debug)]
struct BulkVolley {
    conn: shell::ltl::SendConnId,
    shell: ComponentId,
    remaining: u32,
}

impl BulkVolley {
    fn send(&self) -> Msg {
        Msg::LtlSend(LtlSend {
            conn: self.conn,
            vc: 0,
            payload: Bytes::from(vec![0xA5; MESSAGE_BYTES]),
        })
    }
}

impl Component<Msg> for BulkVolley {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<LtlDeliver>().is_ok() && self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(self.shell, self.send());
        }
    }
}

/// Runs the bulk volley unsharded to `shard_at`, on `shards` shards to
/// `unshard_at`, and unsharded again until it drains; returns the full
/// telemetry fingerprint.
fn fingerprint(shards: u32, shard_at: SimTime, unshard_at: SimTime) -> String {
    let mut cluster = ClusterBuilder::paper(99, 2).build();
    // Same rack, cross-rack and cross-pod: every partition cut carries
    // frames, and two pairs share the (0, 1) rack's uplink.
    let pairs = [
        (NodeAddr::new(0, 0, 1), NodeAddr::new(0, 0, 2)),
        (NodeAddr::new(0, 1, 3), NodeAddr::new(0, 7, 4)),
        (NodeAddr::new(0, 1, 5), NodeAddr::new(1, 5, 6)),
        (NodeAddr::new(1, 0, 7), NodeAddr::new(0, 9, 8)),
    ];
    for &(a, b) in &pairs {
        let a_id = cluster.add_shell(a);
        let b_id = cluster.add_shell(b);
        let (a_send, b_send, _, _) = cluster.connect_pair(a, b);
        let volley = |conn, shell| BulkVolley {
            conn,
            shell,
            remaining: 3,
        };
        let kickoff = volley(a_send, a_id).send();
        let a_drv = cluster.add_component_at(a, volley(a_send, a_id));
        let b_drv = cluster.add_component_at(b, volley(b_send, b_id));
        cluster.set_consumer(a, a_drv);
        cluster.set_consumer(b, b_drv);
        cluster.engine_mut().schedule(SimTime::ZERO, a_id, kickoff);
    }
    let mut events = cluster.run_until(shard_at);
    assert!(cluster.engine().pending_events() > 0, "sharded while idle");
    assert_eq!(cluster.shard(shards), shards);
    events += cluster.run_until(unshard_at);
    cluster.unshard();
    assert!(
        cluster.engine().pending_events() > 0,
        "unsharded while idle"
    );
    events += cluster.run_to_idle();
    format!(
        "events {events}\nnow {}\n{}",
        cluster.now().as_nanos(),
        cluster.metrics_snapshot().to_json_pretty()
    )
}

#[test]
fn sharding_in_mid_transfer_is_deterministic_and_shard_count_invariant() {
    // The first 32 KiB leaves each sender between ~1 us and ~8 us; step
    // both switch-over instants through that window off the frame grid.
    for step in 0..4u64 {
        let shard_at = SimTime::from_nanos(2_000 + 437 * step);
        let unshard_at = SimTime::from_nanos(5_000 + 611 * step);
        let one = fingerprint(1, shard_at, unshard_at);
        assert_eq!(
            one.matches("/ltl/msgs_delivered\": 4,").count(),
            4,
            "every pair finishes its volley"
        );
        let again = fingerprint(1, shard_at, unshard_at);
        common::assert_identical("same seed, same run", &one, &again);
        for shards in [2, 4] {
            common::assert_identical(
                &format!("1 vs {shards} shards, step {step}"),
                &one,
                &fingerprint(shards, shard_at, unshard_at),
            );
        }
    }
}
