//! Cluster invariants under the sharded (parallel-in-run) engine.
//!
//! The classic harness hooks [`simcheck::invariants::InvariantObserver`]
//! into the engine's observer and checks after every event. The sharded
//! engine has no observer hook (checking inside worker threads would
//! race), so this scenario drives the cluster in short `run_until` steps
//! and evaluates the granularity-insensitive invariants — switch queue
//! bounds, LTL receive monotonicity — between steps via
//! [`simcheck::invariants::InvariantObserver::check_now`].

use bytes::Bytes;
use catapult::prelude::*;
use shell::{LtlDeliver, LtlSend};
use simcheck::invariants::InvariantObserver;

/// Replies to every LTL delivery with another send, `remaining` times.
#[derive(Debug)]
struct Volley {
    conn: shell::ltl::SendConnId,
    shell: ComponentId,
    remaining: u32,
}

impl Component<Msg> for Volley {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<LtlDeliver>().is_ok() && self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(
                self.shell,
                Msg::LtlSend(LtlSend {
                    conn: self.conn,
                    vc: 0,
                    payload: Bytes::from_static(b"sharded-invariants"),
                }),
            );
        }
    }
}

#[test]
fn sharded_cluster_holds_invariants_between_windows() {
    // Fixed and adaptive windows must both hold every invariant — and the
    // windowed stepping must see identical event totals, since the window
    // policy never changes event order.
    let fixed = run_windowed_scenario(WindowPolicy::fixed());
    let adaptive = run_windowed_scenario(WindowPolicy::adaptive());
    assert_eq!(
        fixed, adaptive,
        "window policy changed the observable event stream"
    );
}

/// Drives the windowed cluster-invariant scenario under `policy` and
/// returns the observable summary (events per step boundary).
fn run_windowed_scenario(policy: WindowPolicy) -> Vec<(u64, u64)> {
    let mut cluster = ClusterBuilder::paper(97, 2).build();
    let pairs = [
        (NodeAddr::new(0, 0, 1), NodeAddr::new(1, 4, 2)),
        (NodeAddr::new(0, 3, 3), NodeAddr::new(0, 8, 4)),
        (NodeAddr::new(1, 1, 5), NodeAddr::new(0, 6, 6)),
    ];
    for &(a, b) in &pairs {
        let a_id = cluster.add_shell(a);
        let b_id = cluster.add_shell(b);
        let (a_send, b_send, _, _) = cluster.connect_pair(a, b);
        let a_drv = cluster.add_component_at(
            a,
            Volley {
                conn: a_send,
                shell: a_id,
                remaining: 40,
            },
        );
        let b_drv = cluster.add_component_at(
            b,
            Volley {
                conn: b_send,
                shell: b_id,
                remaining: 40,
            },
        );
        cluster.set_consumer(a, a_drv);
        cluster.set_consumer(b, b_drv);
        cluster.engine_mut().schedule(
            SimTime::ZERO,
            a_id,
            Msg::LtlSend(LtlSend {
                conn: a_send,
                vc: 0,
                payload: Bytes::from_static(b"kickoff"),
            }),
        );
    }

    // Every switch and shell is under oracle.
    let switches: Vec<ComponentId> = cluster.fabric().switches().map(|(_, id)| id).collect();
    let shells: Vec<ComponentId> = cluster.shells().map(|(_, id)| id).collect();
    let mut oracle = InvariantObserver::windowed(switches, shells, None);

    assert_eq!(cluster.shard(4), 4);
    cluster.set_window_policy(policy);
    let step = SimDuration::from_micros(5);
    let mut events = 0;
    let mut trace = Vec::new();
    for i in 1..=100u64 {
        events += cluster.run_until(SimTime::ZERO + step * i);
        oracle.check_now(cluster.now(), &cluster);
        trace.push((cluster.now().as_nanos(), events));
    }
    assert!(events > 0, "volleys produced no events");
    assert!(oracle.checks() > 0, "oracle evaluated nothing");
    assert_eq!(
        oracle.violations(),
        &[],
        "invariant violations under the sharded engine"
    );
    trace
}
