//! Cross-crate integration: LTL messaging over the full simulated fabric,
//! calibration against the paper's Figure 10 latencies, and lossless-class
//! behaviour under load.

use bytes::Bytes;
use catapult::telemetry::Histogram;
use catapult::{probe::schedule_probes, Cluster, ClusterBuilder};
use dcnet::{Msg, NodeAddr, Switch};
use dcsim::{Component, Context, SimDuration, SimTime};
use shell::{LtlSend, Shell};

#[path = "common/collector.rs"]
mod collector;
use collector::Collector;

fn measure_rtt(mut cluster: Cluster, a: NodeAddr, b: NodeAddr, probes: u64) -> Histogram<u32> {
    cluster.add_shell(a);
    cluster.add_shell(b);
    let (a_send, _, _, _) = cluster.connect_pair(a, b);
    schedule_probes(
        &mut cluster,
        a,
        a_send,
        SimTime::ZERO,
        SimDuration::from_micros(100),
        probes,
        32,
    );
    cluster.run_to_idle();
    cluster.shell(a).ltl().rtts().clone()
}

#[test]
fn l0_rtt_matches_paper() {
    // Paper: same-TOR average 2.88us, p99.9 2.9us.
    let r = measure_rtt(
        ClusterBuilder::paper(1, 1).build(),
        NodeAddr::new(0, 0, 0),
        NodeAddr::new(0, 0, 1),
        300,
    );
    let avg = r.mean() / 1e3;
    assert!((avg - 2.88).abs() < 0.1, "L0 avg {avg}us");
    let p999 = r.percentile(99.9).unwrap() as f64 / 1e3;
    assert!(p999 < 3.2, "L0 p999 {p999}us");
}

#[test]
fn l1_rtt_matches_paper() {
    // Paper: same-pod average 7.72us.
    let r = measure_rtt(
        ClusterBuilder::paper(2, 1).build(),
        NodeAddr::new(0, 2, 0),
        NodeAddr::new(0, 9, 1),
        300,
    );
    let avg = r.mean() / 1e3;
    assert!((avg - 7.72).abs() < 0.6, "L1 avg {avg}us");
}

#[test]
fn l2_rtt_matches_paper() {
    // Paper: cross-pod average 18.71us, max observed 23.5us.
    let r = measure_rtt(
        ClusterBuilder::paper(3, 3).build(),
        NodeAddr::new(0, 2, 0),
        NodeAddr::new(2, 9, 1),
        300,
    );
    let avg = r.mean() / 1e3;
    assert!((avg - 18.71).abs() < 1.5, "L2 avg {avg}us");
    assert!(
        r.max().unwrap() < 40_000,
        "L2 max {}ns is wild",
        r.max().unwrap()
    );
}

#[test]
fn ltl_beats_host_software_stack() {
    // "This protocol makes the datacenter-scale remote FPGA resources
    // appear closer than ... the time to get through the host's
    // networking stack."
    let r = measure_rtt(
        ClusterBuilder::paper(5, 3).build(),
        NodeAddr::new(0, 0, 0),
        NodeAddr::new(2, 0, 0),
        100,
    );
    let l2_rtt = SimDuration::from_nanos(r.percentile(99.9).unwrap());
    let stack = host::SoftStackModel::default();
    let mut rng = dcsim::SimRng::seed_from(1);
    let mut stack_rtt_total = SimDuration::ZERO;
    for _ in 0..100 {
        // Request/response through two software stacks each way.
        stack_rtt_total += stack.sample(&mut rng) * 4;
    }
    let stack_rtt = stack_rtt_total / 100;
    assert!(
        l2_rtt < stack_rtt,
        "LTL L2 p99.9 {l2_rtt} should beat software stacks {stack_rtt}"
    );
    assert!(l2_rtt < host::LOCAL_SSD_ACCESS, "and a local SSD access");
}

#[test]
fn large_message_crosses_pods_intact() {
    let mut cluster = ClusterBuilder::paper(8, 2).build();
    let a = NodeAddr::new(0, 0, 0);
    let b = NodeAddr::new(1, 0, 0);
    let a_id = cluster.add_shell(a);
    cluster.add_shell(b);
    let (a_send, _, _, _) = cluster.connect_pair(a, b);
    let collector = cluster.engine_mut().add_component(Collector::default());
    cluster.set_consumer(b, collector);
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 7) as u8).collect();
    cluster.engine_mut().schedule(
        SimTime::ZERO,
        a_id,
        Msg::LtlSend(LtlSend {
            conn: a_send,
            vc: 0,
            payload: Bytes::from(payload.clone()),
        }),
    );
    cluster.run_to_idle();
    let c = cluster
        .engine()
        .component::<Collector>(collector)
        .expect("collector exists");
    assert_eq!(c.payloads.len(), 1);
    assert_eq!(c.payloads[0].as_ref(), payload.as_slice());
    // ~70 frames, all acknowledged.
    let shell = cluster.shell(a);
    assert!(shell.ltl().stats_view().data_sent >= 69);
    assert_eq!(shell.ltl().in_flight(), 0);
}

#[test]
fn cross_pod_multi_frame_messages_arrive_in_order() {
    // The paper's LTL assumes a network that keeps a flow in order (ECMP
    // pins it to one path, egress queues are FIFO). Six-frame go-back-N
    // messages across the spines, with no loss injected anywhere, must
    // therefore need no NACK and no re-send, however the jitter falls.
    let mut cluster = ClusterBuilder::paper(12, 2).build();
    let pairs = [
        (NodeAddr::new(0, 0, 0), NodeAddr::new(1, 5, 3)),
        (NodeAddr::new(0, 7, 1), NodeAddr::new(1, 2, 0)),
        (NodeAddr::new(1, 3, 2), NodeAddr::new(0, 9, 4)),
    ];
    let collector = cluster.engine_mut().add_component(Collector::default());
    for &(a, b) in &pairs {
        let a_id = cluster.add_shell(a);
        cluster.add_shell(b);
        cluster.set_consumer(b, collector);
        let (a_send, _, _, _) = cluster.connect_pair(a, b);
        for k in 0..40u64 {
            cluster.engine_mut().schedule(
                SimTime::from_micros(k * 25),
                a_id,
                Msg::LtlSend(LtlSend {
                    conn: a_send,
                    vc: 0,
                    payload: Bytes::from(vec![k as u8; 8 * 1024]),
                }),
            );
        }
    }
    cluster.run_to_idle();
    let c = cluster
        .engine()
        .component::<Collector>(collector)
        .expect("collector exists");
    assert_eq!(c.payloads.len(), pairs.len() * 40, "every message landed");
    for &(a, b) in &pairs {
        let sent = *cluster.shell(a).ltl().stats_view();
        let recv = *cluster.shell(b).ltl().stats_view();
        assert!(sent.data_sent >= 40 * 6, "{a}: {sent:?}");
        assert_eq!(
            (
                sent.retransmits,
                sent.nacks_rx,
                recv.nacks_tx,
                recv.out_of_order
            ),
            (0, 0, 0, 0),
            "{a} -> {b}: sender {sent:?}, receiver {recv:?}"
        );
    }
}

#[test]
fn many_to_one_incast_is_lossless_for_ltl() {
    // Several senders blast one receiver through the same TOR: PFC on the
    // lossless class must prevent drops, and every message must arrive.
    let mut cluster = ClusterBuilder::paper(9, 1).build();
    let dst = NodeAddr::new(0, 0, 0);
    cluster.add_shell(dst);
    let senders: Vec<NodeAddr> = (1..7).map(|h| NodeAddr::new(0, 0, h)).collect();
    for &s in &senders {
        cluster.add_shell(s);
    }
    let collector_id = cluster.engine_mut().add_component(Collector::default());
    cluster.set_consumer(dst, collector_id);
    for (i, &s) in senders.iter().enumerate() {
        let (send, _, _, _) = cluster.connect_pair(s, dst);
        let shell_id = cluster.shell_id(s).expect("sender exists");
        for k in 0..20u64 {
            cluster.engine_mut().schedule(
                SimTime::from_nanos(i as u64 * 50 + k * 400),
                shell_id,
                Msg::LtlSend(LtlSend {
                    conn: send,
                    vc: 0,
                    payload: Bytes::from(vec![i as u8; 1_200]),
                }),
            );
        }
    }
    cluster.run_to_idle();
    let c = cluster
        .engine()
        .component::<Collector>(collector_id)
        .expect("collector exists");
    assert_eq!(c.payloads.len(), senders.len() * 20, "all messages landed");
    // The TOR never dropped an LTL frame.
    let tor = cluster.fabric().tor_switch(0, 0);
    let stats = cluster
        .engine()
        .component::<Switch>(tor)
        .expect("tor exists")
        .stats_view();
    assert_eq!(stats.dropped, 0, "lossless class dropped: {stats:?}");
}

#[test]
fn dead_node_detected_in_milliseconds() {
    // Connection to an unpopulated (dead) slot: retries exhaust quickly so
    // HaaS can reprovision. The TOR port has no peer, so frames vanish.
    let mut cluster = ClusterBuilder::paper(10, 1).build();
    let a = NodeAddr::new(0, 0, 0);
    let dead = NodeAddr::new(0, 0, 9);
    let a_id = cluster.add_shell(a);
    // Manually register a connection to a node that will never answer.
    let a_send = cluster.shell_mut(a).ltl_mut().add_send(dead, 0);
    #[derive(Debug, Default)]
    struct FailureWatch {
        failed: Vec<(SimTime, NodeAddr)>,
    }
    impl Component<Msg> for FailureWatch {
        fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Ok(f) = msg.downcast::<shell::LtlConnFailed>() {
                self.failed.push((ctx.now(), f.remote));
            }
        }
    }
    let watch = cluster.engine_mut().add_component(FailureWatch::default());
    cluster.set_consumer(a, watch);
    cluster.engine_mut().schedule(
        SimTime::ZERO,
        a_id,
        Msg::LtlSend(LtlSend {
            conn: a_send,
            vc: 0,
            payload: Bytes::from_static(b"anyone home?"),
        }),
    );
    cluster.run_until(SimTime::from_millis(30));
    let w = cluster
        .engine()
        .component::<FailureWatch>(watch)
        .expect("watch exists");
    assert_eq!(w.failed.len(), 1);
    assert_eq!(w.failed[0].1, dead);
    // Original transmission plus 8 exponentially backed-off retries of a
    // 50us timeout: failure declared in a handful of milliseconds, fast
    // enough for "ultra-fast reprovisioning of a replacement".
    assert!(
        w.failed[0].0 < SimTime::from_millis(10),
        "failure detected at {}",
        w.failed[0].0
    );
    assert!(cluster.shell(a).ltl().is_failed(a_send));
}

#[test]
fn bridged_host_traffic_and_ltl_coexist_across_fabric() {
    // All the server's network traffic passes through the FPGA while it
    // simultaneously runs LTL: check both flows complete.
    let mut cluster = ClusterBuilder::paper(11, 1).build();
    let a = NodeAddr::new(0, 0, 0);
    let b = NodeAddr::new(0, 1, 0);
    let a_id = cluster.add_shell(a);
    cluster.add_shell(b);
    let (a_send, _, _, _) = cluster.connect_pair(a, b);
    let collector = cluster.engine_mut().add_component(Collector::default());
    cluster.set_consumer(b, collector);

    // Host traffic: injected at A's NIC port, addressed to B's host.
    for i in 0..50u64 {
        let pkt = dcnet::Packet::new(
            a,
            b,
            5555,
            6666,
            dcnet::TrafficClass::BEST_EFFORT,
            Bytes::from(vec![0u8; 1_000]),
        );
        cluster.engine_mut().schedule(
            SimTime::from_nanos(i * 300),
            a_id,
            Msg::packet(pkt, shell::PORT_NIC),
        );
    }
    // LTL traffic at the same time.
    cluster.engine_mut().schedule(
        SimTime::from_micros(3),
        a_id,
        Msg::LtlSend(LtlSend {
            conn: a_send,
            vc: 0,
            payload: Bytes::from(vec![7u8; 5_000]),
        }),
    );
    cluster.run_to_idle();
    let shell_a: &Shell = cluster.shell(a);
    assert_eq!(shell_a.stats_view().bridged_out, 50);
    let c = cluster
        .engine()
        .component::<Collector>(collector)
        .expect("collector exists");
    assert_eq!(c.payloads.len(), 1, "LTL message delivered despite load");
}
