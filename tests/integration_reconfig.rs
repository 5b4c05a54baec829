//! Reconfiguration behaviour (Section II): "Full FPGA reconfiguration
//! briefly brings down this network link ... When network traffic cannot
//! be paused even briefly, partial reconfiguration permits packets to be
//! passed through even during reconfiguration of the role."

use bytes::Bytes;
use catapult::ClusterBuilder;
use dcnet::{Msg, NetEvent, NodeAddr, Packet, PortId, TrafficClass};
use dcsim::{Component, Context, SimDuration, SimTime};
use shell::{LtlSend, Shell, ShellCmd, PORT_NIC};

#[path = "common/collector.rs"]
mod collector;
use collector::Collector;

#[derive(Debug, Default)]
struct HostNic {
    received: Vec<(SimTime, Packet)>,
}

impl Component<Msg> for HostNic {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Msg::Net(NetEvent::Packet { pkt, .. }) = msg {
            self.received.push((ctx.now(), pkt));
        }
    }
}

/// Sends a packet from A's host every 100 ms for 3 s while A reconfigures
/// at t=500 ms; returns the packets B's host received.
fn run_with_reconfig(partial: bool) -> (usize, u64, usize) {
    let mut cluster = ClusterBuilder::paper(31, 1).build();
    let a = NodeAddr::new(0, 0, 1);
    let b = NodeAddr::new(0, 0, 2);
    let a_shell = cluster.add_shell(a);
    cluster.add_shell(b);
    let nic_b = cluster.engine_mut().add_component(HostNic::default());
    cluster.shell_mut(b).connect_nic(nic_b, PortId(0));

    let total = 30u64;
    for i in 0..total {
        let pkt = Packet::new(
            a,
            b,
            1000,
            2000,
            TrafficClass::BEST_EFFORT,
            Bytes::from(vec![i as u8; 200]),
        );
        cluster.engine_mut().schedule(
            SimTime::from_millis(i * 100),
            a_shell,
            Msg::packet(pkt, PORT_NIC),
        );
    }
    cluster.engine_mut().schedule(
        SimTime::from_millis(500),
        a_shell,
        Msg::custom(ShellCmd::Reconfigure { partial }),
    );
    cluster.run_to_idle();

    let received = cluster
        .engine()
        .component::<HostNic>(nic_b)
        .expect("nic exists")
        .received
        .len();
    let shell_a = cluster.shell(a);
    (
        received,
        shell_a.stats_view().reconfig_drops,
        total as usize,
    )
}

#[test]
fn full_reconfig_drops_traffic_for_the_load_window() {
    let (received, drops, total) = run_with_reconfig(false);
    // 1.8s load window starting at 0.5s: the ~18 packets inside it vanish.
    assert!(drops >= 15, "drops {drops}");
    assert_eq!(received + drops as usize, total);
    assert!(received < total);
}

#[test]
fn partial_reconfig_passes_all_traffic() {
    let (received, drops, total) = run_with_reconfig(true);
    assert_eq!(drops, 0, "partial reconfiguration keeps the bridge up");
    assert_eq!(received, total);
}

#[test]
fn bridge_recovers_after_full_reconfig() {
    let mut cluster = ClusterBuilder::paper(32, 1).build();
    let a = NodeAddr::new(0, 0, 1);
    let a_shell = cluster.add_shell(a);
    cluster.engine_mut().schedule(
        SimTime::ZERO,
        a_shell,
        Msg::custom(ShellCmd::Reconfigure { partial: false }),
    );
    cluster.run_until(SimTime::from_millis(100));
    assert!(!cluster.shell(a).bridge_up(), "down during the load");
    cluster.run_for(SimDuration::from_millis(2_000));
    assert!(cluster.shell(a).bridge_up(), "back up after the load");
}

#[test]
fn ltl_survives_partial_reconfig() {
    // Messages sent mid-partial-reconfig still deliver: LTL is shell
    // logic, not role logic.
    let mut cluster = ClusterBuilder::paper(33, 1).build();
    let a = NodeAddr::new(0, 0, 1);
    let b = NodeAddr::new(0, 0, 2);
    let a_shell = cluster.add_shell(a);
    cluster.add_shell(b);
    let (a_send, _, _, _) = cluster.connect_pair(a, b);
    let collector = cluster.engine_mut().add_component(Collector::default());
    cluster.set_consumer(b, collector);
    cluster.engine_mut().schedule(
        SimTime::ZERO,
        a_shell,
        Msg::custom(ShellCmd::Reconfigure { partial: true }),
    );
    cluster.engine_mut().schedule(
        SimTime::from_millis(100), // mid-reconfig (250ms window)
        a_shell,
        Msg::LtlSend(LtlSend {
            conn: a_send,
            vc: 0,
            payload: Bytes::from_static(b"role swap in progress"),
        }),
    );
    cluster.run_to_idle();
    assert_eq!(
        cluster
            .engine()
            .component::<Collector>(collector)
            .expect("collector exists")
            .payloads
            .len(),
        1
    );
    let _ = cluster.shell(a) as &Shell;
}
