//! Multi-FPGA services: "ganging together groups of FPGAs into service
//! pools" — a three-stage accelerator pipeline spread across racks, with
//! the final stage replying to the client over LTL. HaaS allocates the
//! stages as one multi-FPGA Component.

use apps::remote::{AcceleratorRole, IssueRequest, RemoteClient};
use catapult::{Cluster, ClusterBuilder};
use dcnet::{Msg, NodeAddr};
use dcsim::{ComponentId, SimDuration, SimTime};
use haas::{whole_board_pool, ServiceManager};
use shell::tenant::TenantId;

struct Pipeline {
    cluster: Cluster,
    client_id: ComponentId,
    stage_roles: Vec<ComponentId>,
}

/// Builds client -> A -> B -> C -> client across four racks of one pod.
fn build_pipeline(service_us: u64) -> Pipeline {
    let mut cluster = ClusterBuilder::paper(55, 1).build();

    // HaaS: one three-FPGA component for the pipeline service.
    let mut pool = whole_board_pool((0..6u16).map(|tor| NodeAddr::new(0, tor, 0)));
    let mut sm = ServiceManager::new("rank-pipeline", TenantId(0));
    let comp = sm
        .grow_component(&mut pool, SimTime::ZERO, 3)
        .expect("capacity available");
    let stages: Vec<NodeAddr> = comp.addrs().collect();
    assert_eq!(stages.len(), 3);

    let client_addr = NodeAddr::new(0, 9, 5);
    cluster.add_shell(client_addr);
    for &s in &stages {
        cluster.add_shell(s);
    }

    // Connections along the chain plus the tail-to-client reply path.
    let (client_to_a, _, _, a_recv_from_client) = cluster.connect_pair(client_addr, stages[0]);
    let (a_to_b, _, _, b_recv_from_a) = cluster.connect_pair(stages[0], stages[1]);
    let (b_to_c, _, _, c_recv_from_b) = cluster.connect_pair(stages[1], stages[2]);
    let (c_to_client, _, _, _client_recv) = cluster.connect_pair(stages[2], client_addr);

    let service = SimDuration::from_micros(service_us);
    let mut stage_roles = Vec::new();
    for (i, &addr) in stages.iter().enumerate() {
        let shell_id = cluster.shell_id(addr).expect("stage populated");
        let mut role = AcceleratorRole::new(shell_id, service, 0.1, 4, 1024);
        match i {
            0 => role.set_forward(a_to_b),
            1 => role.set_forward(b_to_c),
            _ => role.add_reply_route(c_recv_from_b, c_to_client),
        }
        let _ = (a_recv_from_client, b_recv_from_a); // recv ids fixed by wiring order
        let role_id = cluster.engine_mut().add_component(role);
        cluster.set_consumer(addr, role_id);
        stage_roles.push(role_id);
    }

    let client_shell = cluster.shell_id(client_addr).expect("client populated");
    let client = RemoteClient::new(client_shell, client_to_a, 2048, 1);
    let client_id = cluster.engine_mut().add_component(client);
    cluster.set_consumer(client_addr, client_id);

    Pipeline {
        cluster,
        client_id,
        stage_roles,
    }
}

#[test]
fn three_stage_pipeline_round_trip() {
    let mut p = build_pipeline(100);
    for i in 0..50u64 {
        p.cluster.engine_mut().schedule(
            SimTime::from_micros(i * 500),
            p.client_id,
            Msg::custom(IssueRequest),
        );
    }
    p.cluster.run_to_idle();

    let completed: Vec<u64> = p
        .stage_roles
        .iter()
        .map(|&id| {
            p.cluster
                .engine()
                .component::<AcceleratorRole>(id)
                .expect("role exists")
                .completed()
        })
        .collect();
    assert_eq!(completed, vec![50, 50, 50], "every stage saw every request");

    let client = p
        .cluster
        .engine()
        .component::<RemoteClient>(p.client_id)
        .expect("client exists");
    assert_eq!(client.completed(), 50);
    assert_eq!(client.outstanding(), 0);
    // End-to-end: 3 x 100us service + 4 LTL hops (~8us each) ~= 330us.
    let p50 = client.latencies().percentile(50.0).unwrap() as f64 / 1e3;
    assert!(
        (250.0..450.0).contains(&p50),
        "pipeline median {p50}us out of band"
    );
}

#[test]
fn pipeline_overlaps_successive_requests() {
    // With 4 slots per stage and requests issued faster than one service
    // time apart, pipeline parallelism must keep throughput near the
    // issue rate rather than serialising stage-by-stage.
    let mut p = build_pipeline(200);
    let n = 40u64;
    for i in 0..n {
        p.cluster.engine_mut().schedule(
            SimTime::from_micros(i * 60), // 60us < 200us service
            p.client_id,
            Msg::custom(IssueRequest),
        );
    }
    p.cluster.run_to_idle();
    let total = p.cluster.now().as_micros_f64();
    let client = p
        .cluster
        .engine_mut()
        .component_mut::<RemoteClient>(p.client_id)
        .expect("client exists");
    assert_eq!(client.completed(), n as usize);
    // Fully serialised would take ~ 40 * 3 * 200us = 24ms; pipelined with
    // 4 slots/stage it finishes far faster.
    assert!(total < 8_000.0, "took {total}us — not pipelined?");
}
