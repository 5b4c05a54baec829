//! End-to-end congestion control: sustained incast onto one receiver must
//! trigger the full DC-QCN loop (switch ECN marking -> receiver CNPs ->
//! sender rate cuts) and PFC must keep the lossless class drop-free, "so
//! the FPGA can safely insert and remove packets from the network without
//! disrupting existing flows."

use bytes::Bytes;
use catapult::{Cluster, ClusterBuilder};
use dcnet::{Msg, NodeAddr, Switch};
use dcsim::{Component, Context, SimDuration, SimTime};
use shell::{LtlDeliver, LtlSend, Shell};

#[derive(Debug, Default)]
struct Counter {
    messages: usize,
    bytes: usize,
    last_at: SimTime,
}

impl Component<Msg> for Counter {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Ok(d) = msg.downcast::<LtlDeliver>() {
            self.messages += 1;
            self.bytes += d.payload.len();
            self.last_at = ctx.now();
        }
    }
}

/// Four senders each blast 60 large messages at one receiver through a
/// single TOR (aggregate 4x the egress line rate).
fn incast() -> (Cluster, Vec<NodeAddr>, NodeAddr, dcsim::ComponentId) {
    let mut cluster = ClusterBuilder::paper(41, 1).build();
    let dst = NodeAddr::new(0, 0, 0);
    cluster.add_shell(dst);
    let senders: Vec<NodeAddr> = (1..5).map(|h| NodeAddr::new(0, 0, h)).collect();
    for &s in &senders {
        cluster.add_shell(s);
    }
    let counter = cluster.engine_mut().add_component(Counter::default());
    cluster.set_consumer(dst, counter);
    for (i, &s) in senders.iter().enumerate() {
        let (send, _, _, _) = cluster.connect_pair(s, dst);
        let sid = cluster.shell_id(s).expect("sender exists");
        for k in 0..60u64 {
            cluster.engine_mut().schedule(
                SimTime::from_nanos(i as u64 * 31 + k * 2_000),
                sid,
                Msg::LtlSend(LtlSend {
                    conn: send,
                    vc: 0,
                    payload: Bytes::from(vec![k as u8; 10_000]),
                }),
            );
        }
    }
    (cluster, senders, dst, counter)
}

#[test]
fn dcqcn_loop_engages_under_incast() {
    let (mut cluster, senders, dst, counter) = incast();
    cluster.run_to_idle();

    // Everything was delivered despite 4x oversubscription.
    let c = cluster
        .engine()
        .component::<Counter>(counter)
        .expect("counter exists");
    assert_eq!(c.messages, 4 * 60);
    assert_eq!(c.bytes, 4 * 60 * 10_000);

    // The TOR marked ECN under queue buildup...
    let tor = cluster.fabric().tor_switch(0, 0);
    let tor_stats = cluster
        .engine()
        .component::<Switch>(tor)
        .expect("tor exists")
        .stats_view();
    assert!(tor_stats.ecn_marked > 0, "no ECN marks: {tor_stats:?}");
    assert_eq!(tor_stats.dropped, 0, "lossless class must not drop");

    // ...the receiver turned marks into CNPs...
    let rx_stats = cluster.shell(dst).ltl().stats_view();
    assert!(rx_stats.cnps_tx > 0, "receiver sent no CNPs");

    // ...and at least one sender reacted.
    let cnps_rx: u64 = senders
        .iter()
        .map(|&s| cluster.shell(s).ltl().stats_view().cnps_rx)
        .sum();
    assert!(cnps_rx > 0, "no sender received a CNP");

    // Aggregate goodput cannot exceed the receiver's 40 Gb/s line rate.
    let elapsed = c.last_at.as_secs_f64();
    let gbps = c.bytes as f64 * 8.0 / elapsed / 1e9;
    assert!(gbps < 41.0, "goodput {gbps} exceeds line rate");
    assert!(gbps > 5.0, "goodput {gbps} collapsed");
}

#[test]
fn incast_recovers_without_connection_failures() {
    // Queueing during the incast transient can exceed the 50us timeout,
    // so some spurious retransmissions are expected (the receiver re-ACKs
    // duplicates) — but exponential backoff must keep them bounded and no
    // connection may be declared failed.
    let (mut cluster, senders, _dst, _counter) = incast();
    cluster.run_to_idle();
    for &s in &senders {
        let stats = cluster.shell(s).ltl().stats_view();
        assert_eq!(stats.conn_failures, 0, "sender {s}: {stats:?}");
        assert!(
            stats.retransmits < stats.data_sent,
            "sender {s} retransmit storm: {stats:?}"
        );
    }
}

#[test]
fn background_best_effort_traffic_is_protected() {
    // The paper's requirement: LTL "must not interfere with the expected
    // behavior of these various traffic classes." Run the incast and
    // simultaneously bridge best-effort host traffic through the same TOR;
    // it must all arrive (different class, no PFC coupling).
    let (mut cluster, _senders, _dst, _counter) = incast();
    let host_src = NodeAddr::new(0, 0, 10);
    let host_dst = NodeAddr::new(0, 0, 11);
    let src_shell = cluster.add_shell(host_src);
    cluster.add_shell(host_dst);
    #[derive(Debug, Default)]
    struct NicCounter {
        packets: usize,
    }
    impl Component<Msg> for NicCounter {
        fn on_message(&mut self, msg: Msg, _ctx: &mut Context<'_, Msg>) {
            if let Msg::Net(dcnet::NetEvent::Packet { .. }) = msg {
                self.packets += 1;
            }
        }
    }
    let nic = cluster.engine_mut().add_component(NicCounter::default());
    cluster
        .shell_mut(host_dst)
        .connect_nic(nic, dcnet::PortId(0));
    for i in 0..40u64 {
        let pkt = dcnet::Packet::new(
            host_src,
            host_dst,
            1,
            2,
            dcnet::TrafficClass::BEST_EFFORT,
            Bytes::from(vec![0u8; 800]),
        );
        cluster.engine_mut().schedule(
            SimTime::from_micros(i * 3),
            src_shell,
            Msg::packet(pkt, shell::PORT_NIC),
        );
    }
    cluster.run_for(SimDuration::from_millis(50));
    cluster.run_to_idle();
    let n = cluster
        .engine()
        .component::<NicCounter>(nic)
        .expect("nic exists")
        .packets;
    assert_eq!(n, 40, "best-effort traffic starved or dropped");
    let _ = cluster.shell(host_src) as &Shell;
}
