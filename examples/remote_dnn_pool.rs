//! Global acceleration: a Hardware-as-a-Service DNN pool (Sections V-E/F).
//!
//! The whole-board pool tracks donated FPGAs; a Service Manager leases
//! four of them for a DNN service and load-balances clients across the
//! pool; clients reach their accelerator directly over LTL. A node failure
//! mid-run is detected and replaced. The MLP itself is real — the same
//! inference the pool would serve.
//!
//! Run with: `cargo run --release --example remote_dnn_pool`

use apps::dnn::{Mlp, MlpRole};
use apps::remote::{IssueRequest, RemoteClient};
use catapult::ClusterBuilder;
use dcnet::{Msg, NodeAddr};
use dcsim::{SimDuration, SimTime};
use haas::{whole_board_pool, Decision, FpgaManager, NodeStatus, ServiceManager};
use host::{OpenLoopGen, StartGenerator};
use shell::tenant::TenantId;

fn main() {
    println!("== the model served by the pool ==");
    let mlp = Mlp::new(&[64, 128, 64, 10], 3);
    let input: Vec<f32> = (0..64).map(|i| (i as f32 / 64.0).sin()).collect();
    let probs = mlp.infer(&input);
    let best = probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("non-empty output");
    println!(
        "MLP 64-128-64-10: {} MACs/inference, sample argmax class {} (p={:.3})",
        mlp.macs(),
        best.0,
        best.1
    );

    println!("\n== HaaS allocates the pool ==");
    // Donated FPGAs, one per rack.
    let mut pool = whole_board_pool((0..8u16).map(|tor| NodeAddr::new(0, tor, 0)));
    let mut sm = ServiceManager::new("dnn-pool", TenantId(0));
    sm.grow(&mut pool, SimTime::ZERO, 4)
        .expect("pool capacity available");
    println!("pool: 8 donated boards, {} leased", pool.leases().count());
    println!("SM endpoints: {:?}", sm.endpoints());

    // Each node's FPGA Manager loads the DNN image.
    let mut fms: Vec<FpgaManager> = sm
        .endpoints()
        .iter()
        .map(|&a| FpgaManager::new(a))
        .collect();
    for fm in &mut fms {
        fm.configure(fpga::Image::application("dnn-v1", "mlp-64-128-64-10"));
        fm.configuration_done();
        assert_eq!(fm.status(), NodeStatus::Healthy);
    }
    println!("FMs configured image: {}", fms[0].image_name());

    println!("\n== clients drive the pool over LTL ==");
    let mut cloud = ClusterBuilder::paper(5, 1).build();
    let accel_addrs = sm.endpoints();
    let accel_shells: Vec<_> = accel_addrs
        .iter()
        .map(|&a| (a, cloud.add_shell(a)))
        .collect();
    let clients = 8usize;
    let client_addrs: Vec<NodeAddr> = (0..clients)
        .map(|i| NodeAddr::new(0, 10 + i as u16 / 4, 2 + (i % 4) as u16))
        .collect();
    for &c in &client_addrs {
        cloud.add_shell(c);
    }

    // Round-robin placement through the SM, plus LTL wiring.
    let mut per_accel_routes: std::collections::HashMap<NodeAddr, Vec<_>> = Default::default();
    let mut client_conns = Vec::new();
    for &c in &client_addrs {
        let accel = sm.next_endpoint().expect("pool non-empty");
        let (c_send, a_send, _c_recv, a_recv) = cloud.connect_pair(c, accel);
        per_accel_routes
            .entry(accel)
            .or_default()
            .push((a_recv, a_send));
        client_conns.push((c, c_send));
    }
    // Each pool FPGA runs the *real* MLP: requests carry feature vectors,
    // replies carry the predicted class.
    let mut role_ids = Vec::new();
    for &(addr, shell_id) in &accel_shells {
        let mut role = MlpRole::new(
            shell_id,
            Mlp::new(&[64, 128, 64, 10], 3),
            SimDuration::from_micros(300),
            0.15,
            8,
        );
        for &(recv, send) in per_accel_routes.get(&addr).into_iter().flatten() {
            role.add_reply_route(recv, send);
        }
        let id = cloud.engine_mut().add_component(role);
        cloud.set_consumer(addr, id);
        role_ids.push(id);
    }
    let mut client_ids = Vec::new();
    for (i, &(c, conn)) in client_conns.iter().enumerate() {
        let shell_id = cloud.shell_id(c).expect("client shell exists");
        // 8-byte id + 64 f32 features = 264-byte inference requests.
        let client_id = cloud
            .engine_mut()
            .add_component(RemoteClient::new(shell_id, conn, 264, i as u16));
        cloud.set_consumer(c, client_id);
        let gen = cloud.engine_mut().add_component(OpenLoopGen::new(
            client_id,
            SimDuration::from_micros(845), // ~1185 req/s, stress rate
            Some(3_000),
            |_, _| Msg::custom(IssueRequest),
        ));
        cloud.engine_mut().schedule(
            SimTime::from_nanos(37 * i as u64),
            gen,
            Msg::custom(StartGenerator),
        );
        client_ids.push(client_id);
    }
    cloud.run_to_idle();

    let mut all = catapult::telemetry::Histogram::new();
    for id in client_ids {
        let c = cloud
            .engine()
            .component::<RemoteClient>(id)
            .expect("client exists");
        all.extend(c.latencies().iter());
    }
    println!(
        "{} inferences served: avg {:.0}us  p95 {:.0}us  p99 {:.0}us",
        all.count(),
        all.mean() / 1e3,
        all.percentile(95.0).unwrap_or(0) as f64 / 1e3,
        all.percentile(99.0).unwrap_or(0) as f64 / 1e3,
    );
    let served: u64 = role_ids
        .iter()
        .map(|&id| {
            cloud
                .engine()
                .component::<MlpRole>(id)
                .expect("role exists")
                .served()
        })
        .sum();
    println!("pool ran {served} real MLP inferences (host CPUs of donated FPGAs: zero load)");

    println!("\n== failure handling ==");
    let victim = sm.endpoints()[0];
    let now = cloud.now();
    pool.board_down(now, victim).expect("victim is registered");
    let lease = match pool.last_decisions() {
        [Decision::BoardDown { lost, .. }] => lost[0],
        other => panic!("victim's board went down: {other:?}"),
    };
    let replacement = sm
        .handle_failure(&mut pool, now, lease)
        .expect("spares available")
        .expect("replacement granted");
    println!("node {victim} failed; SM replaced it with {replacement} in one pool round trip");
    println!("pool intact: {} endpoints", sm.endpoints().len());
}
