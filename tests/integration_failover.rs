//! End-to-end node failure and reprovisioning: a pool accelerator goes
//! dark mid-run; the client's LTL connection times out ("Timeouts can
//! also be used to identify failing nodes quickly, if ultra-fast
//! reprovisioning of a replacement is critical"), the client fails over to
//! a pre-provisioned spare, re-issues its in-flight requests, and every
//! request eventually completes. The Resource Manager books the failure
//! and the Service Manager's replacement in parallel.

use apps::remote::{AcceleratorRole, IssueRequest, RemoteClient};
use catapult::{Cluster, ClusterBuilder};
use dcnet::{Msg, NodeAddr, SwitchCmd};
use dcsim::{ComponentId, SimDuration, SimTime};
use haas::{Constraints, ResourceManager, ServiceManager};

#[test]
fn client_fails_over_to_spare_and_finishes_all_requests() {
    let mut cluster = ClusterBuilder::paper(91, 1).build();

    // HaaS: primary leased from the pool, one spare left unallocated.
    let primary = NodeAddr::new(0, 1, 0);
    let spare = NodeAddr::new(0, 2, 0);
    let mut rm = ResourceManager::new();
    rm.register(primary);
    rm.register(spare);
    let mut sm = ServiceManager::new("dnn");
    sm.grow(&mut rm, 1, &Constraints::default()).unwrap();
    assert_eq!(sm.endpoints(), vec![primary]);

    let client_addr = NodeAddr::new(0, 5, 3);
    cluster.add_shell(client_addr);
    cluster.add_shell(primary);
    cluster.add_shell(spare);

    // Static persistent connections to both primary and spare.
    let (to_primary, p_send, _c_recv1, p_recv) = cluster.connect_pair(client_addr, primary);
    let (to_spare, s_send, _c_recv2, s_recv) = cluster.connect_pair(client_addr, spare);

    let service = SimDuration::from_micros(200);
    let mk_role = |cluster: &mut Cluster, addr: NodeAddr, recv, send| -> ComponentId {
        let shell_id = cluster.shell_id(addr).expect("populated");
        let mut role = AcceleratorRole::new(shell_id, service, 0.1, 4, 256);
        role.add_reply_route(recv, send);
        let id = cluster.engine_mut().add_component(role);
        cluster.set_consumer(addr, id);
        id
    };
    mk_role(&mut cluster, primary, p_recv, p_send);
    let spare_role = mk_role(&mut cluster, spare, s_recv, s_send);

    let client_shell = cluster.shell_id(client_addr).expect("populated");
    let mut client = RemoteClient::new(client_shell, to_primary, 512, 1);
    client.add_backup(to_spare);
    let client_id = cluster.engine_mut().add_component(client);
    cluster.set_consumer(client_addr, client_id);

    // Steady request stream: one per 500us for 50ms.
    let total = 100u64;
    for k in 0..total {
        cluster.engine_mut().schedule(
            SimTime::from_micros(k * 500),
            client_id,
            Msg::custom(IssueRequest),
        );
    }

    // At t = 10ms the primary's TOR port is uncabled: node dark.
    let tor = cluster.fabric().tor_switch(primary.pod, primary.tor);
    cluster.engine_mut().schedule(
        SimTime::from_millis(10),
        tor,
        Msg::Switch(SwitchCmd::Disconnect(dcnet::PortId(primary.host))),
    );
    cluster.run_to_idle();

    // The client failed over exactly once and nothing was lost.
    let client = cluster
        .engine_mut()
        .component_mut::<RemoteClient>(client_id)
        .expect("client exists");
    assert_eq!(client.failovers(), 1);
    assert_eq!(client.outstanding(), 0, "no request stranded");
    assert_eq!(client.completed(), total as usize);
    // In-flight requests at failure time show the detection delay (a few
    // ms of retries) in the tail.
    let p100 = client.latencies_mut().percentile(100.0).unwrap();
    assert!(
        p100 > 2_000_000,
        "worst request should carry the failover delay, got {p100}ns"
    );

    // The spare actually served the post-failover traffic.
    let spare_served = cluster
        .engine()
        .component::<AcceleratorRole>(spare_role)
        .expect("role exists")
        .completed();
    assert!(spare_served >= 75, "spare served {spare_served}");

    // HaaS bookkeeping mirrors the event.
    let lease = rm.mark_failed(primary).expect("primary was leased");
    let replacement = sm
        .handle_failure(&mut rm, lease)
        .unwrap()
        .expect("spare grantable");
    assert_eq!(replacement, spare);
    assert_eq!(sm.endpoints(), vec![spare]);
}
