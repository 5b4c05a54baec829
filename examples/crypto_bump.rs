//! Network acceleration: host-to-host line-rate encryption in the
//! bump-in-the-wire (Section IV).
//!
//! Two servers exchange packets through their FPGAs. Software installs a
//! per-flow AES-GCM-128 key in both flow tables; thereafter ciphertext
//! rides the wire while both endpoints keep seeing plaintext — with zero
//! CPU cost.
//!
//! Run with: `cargo run --example crypto_bump`

use apps::crypto::{CipherSuite, CpuCryptoModel, CryptoTap, FlowKey};
use bytes::Bytes;
use dcnet::{Msg, NetEvent, NodeAddr, Packet, PortId, TrafficClass};
use dcsim::{Component, ComponentId, Context, Engine, SimTime};
use shell::{Shell, ShellConfig, PORT_NIC, PORT_TOR};

/// A host NIC: records what the host receives off its FPGA.
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

/// A wire sniffer standing in for the TOR: forwards between the two
/// shells while recording the ciphertext it sees.
#[derive(Debug)]
struct WireSniffer {
    left: (ComponentId, PortId),
    right: (ComponentId, PortId),
    observed: Vec<Packet>,
}

impl Component<Msg> for WireSniffer {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Msg::Net(NetEvent::Packet { pkt, ingress }) = msg {
            self.observed.push(pkt.clone());
            let dest = if ingress == PortId(0) {
                self.right
            } else {
                self.left
            };
            ctx.send(dest.0, Msg::packet(pkt, dest.1));
        }
    }
}

fn main() {
    let mut engine: Engine<Msg> = Engine::new(1);
    let addr_a = NodeAddr::new(0, 0, 1);
    let addr_b = NodeAddr::new(0, 0, 2);

    // Component ids are assigned in registration order.
    let shell_a_id = ComponentId::from_raw(0);
    let shell_b_id = ComponentId::from_raw(1);
    let sniffer_id = ComponentId::from_raw(2);
    let nic_a_id = ComponentId::from_raw(3);
    let nic_b_id = ComponentId::from_raw(4);

    let secret = b"stay out of band"; // 16-byte AES-128 key
    let flow = FlowKey {
        src: addr_a,
        dst: addr_b,
        src_port: 7000,
        dst_port: 8000,
    };

    // Software control plane installs the flow key in both FPGAs.
    let mut tap_a = CryptoTap::new();
    tap_a.add_flow(flow, CipherSuite::AesGcm128, secret);
    let mut tap_b = CryptoTap::new();
    tap_b.add_flow(flow, CipherSuite::AesGcm128, secret);

    let mut shell_a = Shell::new(addr_a, ShellConfig::default());
    shell_a.set_tap(Box::new(tap_a));
    shell_a.connect_nic(nic_a_id, PortId(0));
    shell_a.connect_tor(sniffer_id, PortId(0), None);
    let mut shell_b = Shell::new(addr_b, ShellConfig::default());
    shell_b.set_tap(Box::new(tap_b));
    shell_b.connect_nic(nic_b_id, PortId(0));
    shell_b.connect_tor(sniffer_id, PortId(1), None);

    engine.add_component(shell_a);
    engine.add_component(shell_b);
    engine.add_component(WireSniffer {
        left: (shell_a_id, PORT_TOR),
        right: (shell_b_id, PORT_TOR),
        observed: Vec::new(),
    });
    engine.add_component(HostNic::default());
    engine.add_component(HostNic::default());

    // Host A sends plaintext packets into its own FPGA.
    let messages: [&[u8]; 3] = [
        b"GET /index.html",
        b"account=42&amount=1000000",
        b"the quick brown fox jumps over the lazy dog",
    ];
    for (i, m) in messages.iter().enumerate() {
        let pkt = Packet::new(
            addr_a,
            addr_b,
            7000,
            8000,
            TrafficClass::BEST_EFFORT,
            Bytes::copy_from_slice(m),
        );
        engine.schedule(
            SimTime::from_micros(20 * i as u64),
            shell_a_id,
            Msg::packet(pkt, PORT_NIC),
        );
    }
    engine.run_to_idle();

    let sniffer = engine.component::<WireSniffer>(sniffer_id).unwrap();
    let nic_b = engine.component::<HostNic>(nic_b_id).unwrap();

    println!("== what the network saw (ciphertext) ==");
    for pkt in &sniffer.observed {
        let head: Vec<String> = pkt
            .payload
            .iter()
            .take(12)
            .map(|b| format!("{b:02x}"))
            .collect();
        println!("  {} bytes: {}..", pkt.payload.len(), head.join(""));
        assert!(
            !messages.iter().any(|m| pkt.payload.as_ref() == *m),
            "plaintext leaked onto the wire!"
        );
    }

    println!("\n== what host B received (plaintext restored) ==");
    for pkt in &nic_b.received {
        println!("  {:?}", String::from_utf8_lossy(&pkt.payload));
    }
    assert_eq!(nic_b.received.len(), messages.len());

    let cpu = CpuCryptoModel::default();
    println!("\n== why offload ==");
    println!(
        "software AES-GCM-128 at 40 Gb/s full duplex: {:.1} cores",
        cpu.cores_needed(CipherSuite::AesGcm128, 40.0, true)
    );
    println!(
        "software AES-CBC-128-SHA1:                   {:.1} cores",
        cpu.cores_needed(CipherSuite::AesCbc128Sha1, 40.0, true)
    );
    println!("FPGA offload:                                0.0 cores");
}
