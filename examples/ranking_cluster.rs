//! Service acceleration: the Bing ranking workload in all three modes
//! (Section III and Figure 11) — software only, local FPGA, and remote
//! FPGA over LTL — at one load point.
//!
//! Run with: `cargo run --release --example ranking_cluster`

use apps::ranking::{QueryArrival, RankingMode, RankingParams, RankingServer};
use apps::remote::AcceleratorRole;
use catapult::ClusterBuilder;
use dcnet::{Msg, NodeAddr};
use dcsim::{Engine, SimDuration, SimTime};
use host::{OpenLoopGen, StartGenerator};

const QUERIES: u64 = 30_000;

fn standalone(mode: RankingMode, qps: f64, label: &str) {
    let params = RankingParams::default();
    let mut e: Engine<Msg> = Engine::new(11);
    let server_id = e.next_component_id();
    e.add_component(RankingServer::new(params, mode));
    let gen = e.add_component(OpenLoopGen::new(
        server_id,
        SimDuration::from_secs_f64(1.0 / qps),
        Some(QUERIES),
        |id, _| Msg::custom(QueryArrival { id }),
    ));
    e.schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));
    e.run_to_idle();
    let now = e.now();
    let server = e.component::<RankingServer>(server_id).unwrap();
    report(label, server, now);
}

fn report(label: &str, server: &RankingServer, now: SimTime) {
    let thr = server.throughput(now);
    let lat = server.latencies();
    println!(
        "{label:<22} {thr:>8.0} qps  mean {:>6.2} ms  p99 {:>6.2} ms  p99.9 {:>6.2} ms",
        lat.mean() / 1e6,
        lat.percentile(99.0).unwrap_or(0) as f64 / 1e6,
        lat.percentile(99.9).unwrap_or(0) as f64 / 1e6,
    );
}

fn remote(qps: f64) {
    let params = RankingParams::default();
    let mut cloud = ClusterBuilder::paper(11, 1).build();
    let host_addr = NodeAddr::new(0, 0, 1);
    let accel_addr = NodeAddr::new(0, 5, 9); // donated FPGA in another rack
    let host_shell = cloud.add_shell(host_addr);
    let accel_shell = cloud.add_shell(accel_addr);
    let (to_accel, to_host, _h, a_recv) = cloud.connect_pair(host_addr, accel_addr);

    let server_id = cloud.engine_mut().add_component(RankingServer::new(
        params.clone(),
        RankingMode::RemoteFpga {
            shell: host_shell,
            conn: to_accel,
        },
    ));
    let mut role = AcceleratorRole::new(
        accel_shell,
        params.fpga_latency,
        params.sigma / 2.0,
        params.fpga_slots,
        params.response_bytes,
    );
    role.add_reply_route(a_recv, to_host);
    let role_id = cloud.engine_mut().add_component(role);
    cloud.set_consumer(host_addr, server_id);
    cloud.set_consumer(accel_addr, role_id);
    let gen = cloud.engine_mut().add_component(OpenLoopGen::new(
        server_id,
        SimDuration::from_secs_f64(1.0 / qps),
        Some(QUERIES),
        |id, _| Msg::custom(QueryArrival { id }),
    ));
    cloud
        .engine_mut()
        .schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));
    cloud.run_to_idle();
    let now = cloud.now();
    let server = cloud
        .engine()
        .component::<RankingServer>(server_id)
        .unwrap();
    report("remote FPGA (LTL)", server, now);
}

fn main() {
    let params = RankingParams::default();
    let qps = 0.9 * params.software_capacity();
    println!(
        "ranking service: {} cores, software capacity {:.0} qps, FPGA capacity {:.0} qps",
        12,
        params.software_capacity(),
        params.fpga_capacity()
    );
    println!("offered load: {qps:.0} qps ({QUERIES} queries)\n");
    standalone(RankingMode::Software, qps, "software only");
    standalone(RankingMode::LocalFpga, qps, "local FPGA (PCIe)");
    remote(qps);
    println!("\nAt the same load the FPGA modes cut latency ~3x; remote adds only the");
    println!("LTL round trip (~8us) to a multi-millisecond query — the paper's point.");
}
