//! End-to-end network-acceleration integration: encrypted flows crossing
//! the real simulated fabric through bump-in-the-wire crypto taps.

use apps::crypto::{CipherSuite, CryptoTap, FlowKey};
use bytes::Bytes;
use catapult::ClusterBuilder;
use dcnet::{Msg, NetEvent, NodeAddr, Packet, PortId, TrafficClass};
use dcsim::{Component, ComponentId, Context, SimTime};
use shell::PORT_NIC;

#[derive(Debug, Default)]
struct HostNic {
    received: Vec<Packet>,
}

impl Component<Msg> for HostNic {
    fn on_message(&mut self, msg: Msg, _ctx: &mut Context<'_, Msg>) {
        if let Msg::Net(NetEvent::Packet { pkt, .. }) = msg {
            self.received.push(pkt);
        }
    }
}

fn encrypted_flow_roundtrip(suite: CipherSuite) -> (Vec<Packet>, u64) {
    let mut cluster = ClusterBuilder::paper(21, 1).build();
    let a = NodeAddr::new(0, 0, 1);
    let b = NodeAddr::new(0, 5, 2); // cross-rack, through agg
    let a_shell = cluster.add_shell(a);
    let b_shell = cluster.add_shell(b);

    let flow = FlowKey {
        src: a,
        dst: b,
        src_port: 7000,
        dst_port: 8000,
    };
    let key = b"an-aes-128-key!!";
    let mut tap_a = CryptoTap::new();
    tap_a.add_flow(flow, suite, key);
    let mut tap_b = CryptoTap::new();
    tap_b.add_flow(flow, suite, key);
    cluster.shell_mut(a).set_tap(Box::new(tap_a));
    cluster.shell_mut(b).set_tap(Box::new(tap_b));

    // B's host NIC receives the decrypted stream.
    let nic_b: ComponentId = cluster.engine_mut().add_component(HostNic::default());
    cluster.shell_mut(b).connect_nic(nic_b, PortId(0));

    let messages = 10u64;
    for i in 0..messages {
        let pkt = Packet::new(
            a,
            b,
            7000,
            8000,
            TrafficClass::BEST_EFFORT,
            Bytes::from(format!("secret payload number {i}")),
        );
        cluster.engine_mut().schedule(
            SimTime::from_micros(i * 20),
            a_shell,
            Msg::packet(pkt, PORT_NIC),
        );
    }
    cluster.run_to_idle();

    let received = cluster
        .engine()
        .component::<HostNic>(nic_b)
        .expect("nic exists")
        .received
        .clone();
    let encrypted = cluster
        .shell(a)
        .tap_as::<CryptoTap>()
        .expect("crypto tap installed")
        .stats_view()
        .encrypted;
    let _ = b_shell;
    (received, encrypted)
}

#[test]
fn gcm_flow_decrypts_at_destination_across_fabric() {
    let (received, encrypted) = encrypted_flow_roundtrip(CipherSuite::AesGcm128);
    assert_eq!(encrypted, 10);
    assert_eq!(received.len(), 10);
    for (i, pkt) in received.iter().enumerate() {
        assert_eq!(
            pkt.payload.as_ref(),
            format!("secret payload number {i}").as_bytes(),
            "plaintext restored in order"
        );
    }
}

#[test]
fn cbc_sha1_flow_decrypts_at_destination_across_fabric() {
    let (received, _) = encrypted_flow_roundtrip(CipherSuite::AesCbc128Sha1);
    assert_eq!(received.len(), 10);
    assert!(received
        .iter()
        .enumerate()
        .all(|(i, p)| p.payload.as_ref() == format!("secret payload number {i}").as_bytes()));
}

#[test]
fn receiver_without_key_drops_tampered_traffic() {
    // One-sided key install: the receiving tap has a *different* key, so
    // authentication fails and nothing reaches the host.
    let mut cluster = ClusterBuilder::paper(22, 1).build();
    let a = NodeAddr::new(0, 0, 1);
    let b = NodeAddr::new(0, 0, 2);
    let a_shell = cluster.add_shell(a);
    cluster.add_shell(b);
    let flow = FlowKey {
        src: a,
        dst: b,
        src_port: 1,
        dst_port: 2,
    };
    let mut tap_a = CryptoTap::new();
    tap_a.add_flow(flow, CipherSuite::AesGcm128, b"right-key-128bit");
    let mut tap_b = CryptoTap::new();
    tap_b.add_flow(flow, CipherSuite::AesGcm128, b"wrong-key-128bit");
    cluster.shell_mut(a).set_tap(Box::new(tap_a));
    cluster.shell_mut(b).set_tap(Box::new(tap_b));
    let nic_b = cluster.engine_mut().add_component(HostNic::default());
    cluster.shell_mut(b).connect_nic(nic_b, PortId(0));

    let pkt = Packet::new(
        a,
        b,
        1,
        2,
        TrafficClass::BEST_EFFORT,
        Bytes::from_static(b"x"),
    );
    cluster
        .engine_mut()
        .schedule(SimTime::ZERO, a_shell, Msg::packet(pkt, PORT_NIC));
    cluster.run_to_idle();

    assert!(cluster
        .engine()
        .component::<HostNic>(nic_b)
        .expect("nic exists")
        .received
        .is_empty());
    let stats = cluster
        .shell(b)
        .tap_as::<CryptoTap>()
        .expect("tap installed")
        .stats_view();
    assert_eq!(stats.auth_failures, 1);
}
