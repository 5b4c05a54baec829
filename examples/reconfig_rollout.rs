//! Fleet management: rolling a new role image across a live service.
//!
//! A pool of FPGAs serves traffic while the operator rolls out a new role
//! version rack by rack with *partial* reconfiguration — packets keep
//! flowing the whole time. One node gets a buggy image whose bridge is
//! dead; its FPGA Manager power-cycles it back to the golden image through
//! the management side-channel, exactly as Section II prescribes.
//!
//! Run with: `cargo run --release --example reconfig_rollout`

use bytes::Bytes;
use catapult::ClusterBuilder;
use dcnet::{Msg, NodeAddr};
use dcsim::{Component, Context, SimTime};
use haas::{FpgaManager, NodeStatus};
use shell::{LtlDeliver, LtlSend, ShellCmd};

#[derive(Debug, Default)]
struct Counter {
    delivered: usize,
}

impl Component<Msg> for Counter {
    fn on_message(&mut self, msg: Msg, _ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<LtlDeliver>().is_ok() {
            self.delivered += 1;
        }
    }
}

fn main() {
    let mut cloud = ClusterBuilder::paper(64, 1).build();

    // Four service FPGAs, one client hammering them round-robin.
    let nodes: Vec<NodeAddr> = (0..4).map(|t| NodeAddr::new(0, t, 0)).collect();
    let client = NodeAddr::new(0, 9, 9);
    cloud.add_shell(client);
    let mut conns = Vec::new();
    for &n in &nodes {
        cloud.add_shell(n);
        let (to_n, _, _, _) = cloud.connect_pair(client, n);
        conns.push(to_n);
        let counter = cloud.engine_mut().add_component(Counter::default());
        cloud.set_consumer(n, counter);
    }
    let client_shell = cloud.shell_id(client).expect("client exists");

    // Continuous traffic to every node for 2 simulated seconds.
    let total_msgs = 2_000u64;
    for k in 0..total_msgs {
        let conn = conns[(k % 4) as usize];
        cloud.engine_mut().schedule(
            SimTime::from_micros(k * 1_000),
            client_shell,
            Msg::LtlSend(LtlSend {
                conn,
                vc: 0,
                payload: Bytes::from_static(b"serving"),
            }),
        );
    }

    // Rolling partial reconfiguration: one rack every 300 ms.
    println!("== rolling out role v2 with partial reconfiguration ==");
    let mut fms: Vec<FpgaManager> = nodes.iter().map(|&n| FpgaManager::new(n)).collect();
    for fm in &mut fms {
        fm.configure(fpga::Image::application("svc-image", "role-v1"));
        fm.configuration_done();
    }
    for (i, &n) in nodes.iter().enumerate() {
        let at = SimTime::from_millis(200 + i as u64 * 300);
        let shell_id = cloud.shell_id(n).expect("node exists");
        cloud.engine_mut().schedule(
            at,
            shell_id,
            Msg::custom(ShellCmd::Reconfigure { partial: true }),
        );
        let load_time = fms[i].configure_role("role-v2");
        println!("  {n}: partial reconfig at {at} (load {load_time})");
        fms[i].configuration_done();
    }
    cloud.run_to_idle();

    // Read the whole fleet's counters off one telemetry registry snapshot.
    let snap = cloud.metrics_snapshot();
    let mut delivered = 0;
    for (i, &n) in nodes.iter().enumerate() {
        let served = snap
            .counter(&format!("shell/{n}/ltl/msgs_delivered"))
            .unwrap_or(0);
        let drops = snap
            .counter(&format!("shell/{n}/reconfig_drops"))
            .unwrap_or(0);
        delivered += served;
        println!(
            "  {n}: role {:?}, {served} messages served, 0 dropped by reconfig ({})",
            fms[i].role_name(),
            if drops == 0 {
                "bridge stayed up"
            } else {
                "UNEXPECTED DROPS"
            }
        );
        assert_eq!(drops, 0);
    }
    assert_eq!(delivered, total_msgs);
    println!("all {delivered} messages delivered during the rollout\n");

    // A bad image: bridge-less bitstream makes the node unreachable; the
    // management-port power cycle restores the golden image.
    println!("== bad image recovery via the management side-channel ==");
    let victim = &mut fms[0];
    let mut buggy = fpga::Image::application("role-v3-rc1", "experimental");
    buggy.bridge = false;
    victim.configure(buggy);
    victim.configuration_done();
    println!(
        "  {}: status after bad load = {:?}",
        victim.addr(),
        victim.status()
    );
    assert_eq!(victim.status(), NodeStatus::Unreachable);
    victim.power_cycle();
    println!(
        "  {}: status after power cycle = {:?} (image {:?})",
        victim.addr(),
        victim.status(),
        victim.image_name()
    );
    assert_eq!(victim.status(), NodeStatus::Healthy);
    println!("\ndone.");
}
