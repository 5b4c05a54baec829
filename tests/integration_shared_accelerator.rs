//! The remote-acceleration economics claim: "Even at these higher loads,
//! the FPGA remains underutilized ... Having multiple servers drive fewer
//! FPGAs addresses the underutilization of the FPGAs, which is the goal of
//! our remote acceleration model." Three ranking servers share one remote
//! FPGA: aggregate throughput triples while per-query latency stays at the
//! single-server level.

use apps::ranking::{QueryArrival, RankingMode, RankingParams, RankingServer};
use apps::remote::AcceleratorRole;
use catapult::ClusterBuilder;
use dcnet::{Msg, NodeAddr};
use dcsim::{ComponentId, SimDuration, SimTime};
use host::{OpenLoopGen, StartGenerator};

fn run_shared(servers: usize, qps_each: f64, queries_each: u64) -> (f64, Vec<f64>, f64) {
    let params = RankingParams::default();
    let mut cluster = ClusterBuilder::paper(101, 1).build();
    let accel_addr = NodeAddr::new(0, 20, 0);
    let accel_shell = cluster.add_shell(accel_addr);
    let mut role = AcceleratorRole::new(
        accel_shell,
        params.fpga_latency,
        params.sigma / 2.0,
        params.fpga_slots,
        params.response_bytes,
    );

    let mut server_ids: Vec<ComponentId> = Vec::new();
    for s in 0..servers {
        let host_addr = NodeAddr::new(0, s as u16, 1);
        let host_shell = cluster.add_shell(host_addr);
        let (to_accel, to_host, _h, a_recv) = cluster.connect_pair(host_addr, accel_addr);
        role.add_reply_route(a_recv, to_host);
        let server = cluster.engine_mut().add_component(RankingServer::new(
            params.clone(),
            RankingMode::RemoteFpga {
                shell: host_shell,
                conn: to_accel,
            },
        ));
        cluster.set_consumer(host_addr, server);
        let gen = cluster.engine_mut().add_component(OpenLoopGen::new(
            server,
            SimDuration::from_secs_f64(1.0 / qps_each),
            Some(queries_each),
            |id, _| Msg::custom(QueryArrival { id }),
        ));
        cluster.engine_mut().schedule(
            SimTime::from_nanos(31 * s as u64),
            gen,
            Msg::custom(StartGenerator),
        );
        server_ids.push(server);
    }
    let role_id = cluster.engine_mut().add_component(role);
    cluster.set_consumer(accel_addr, role_id);

    cluster.run_to_idle();
    let now = cluster.now();
    let mut total_thr = 0.0;
    let mut p99s = Vec::new();
    for id in server_ids {
        let srv = cluster
            .engine()
            .component::<RankingServer>(id)
            .expect("server exists");
        total_thr += srv.throughput(now);
        p99s.push(srv.latencies().percentile(99.0).unwrap() as f64 / 1e6);
    }
    // FPGA-side utilisation: completed * mean service / elapsed / slots.
    let role = cluster
        .engine()
        .component::<AcceleratorRole>(role_id)
        .expect("role exists");
    let params = RankingParams::default();
    let util = role.completed() as f64 * params.fpga_latency.as_secs_f64()
        / now.as_secs_f64()
        / params.fpga_slots as f64;
    (total_thr, p99s, util)
}

#[test]
fn three_servers_share_one_fpga_without_latency_penalty() {
    let qps = 1_000.0; // comfortable per-server load
    let (thr1, p99_1, util1) = run_shared(1, qps, 10_000);
    let (thr3, p99_3, util3) = run_shared(3, qps, 10_000);

    // Aggregate throughput scales with the donors.
    assert!((thr1 - qps).abs() < 80.0, "single {thr1}");
    assert!((thr3 - 3.0 * qps).abs() < 240.0, "shared {thr3}");

    // Every server's p99 stays at the single-tenant level (within 15%).
    let base = p99_1[0];
    for (i, p) in p99_3.iter().enumerate() {
        assert!(*p < base * 1.15, "server {i} p99 {p}ms vs solo {base}ms");
    }

    // The single-tenant FPGA is underutilised; sharing triples its use,
    // freeing two other FPGAs entirely.
    assert!(util1 < 0.15, "solo utilisation {util1}");
    assert!(
        (util3 / util1 - 3.0).abs() < 0.3,
        "sharing should triple utilisation: {util1} -> {util3}"
    );
}
