//! End-to-end node failure and reprovisioning: a pool accelerator goes
//! dark mid-run; the client's LTL connection times out ("Timeouts can
//! also be used to identify failing nodes quickly, if ultra-fast
//! reprovisioning of a replacement is critical"), the client fails over to
//! a pre-provisioned spare, re-issues its in-flight requests, and every
//! request eventually completes. The whole-board pool books the failure
//! and the Service Manager's replacement in parallel.
//!
//! The client and the roles write each request and reply into the payload
//! buffer they used last, when nothing else holds it. The ids a role sees
//! show that a buffer still in flight is never rewritten: not when a
//! failover re-issues a burst of requests, not when frames wait out a link
//! outage unacknowledged, and not when replies are parked side by side.

use apps::remote::{decode_reply, AcceleratorRole, IssueRequest, RemoteClient};
use catapult::{Cluster, ClusterBuilder};
use dcnet::{LtlDeliver, Msg, NodeAddr, PortId, SwitchCmd};
use dcsim::{Component, ComponentId, Context, SimDuration, SimTime};
use haas::{whole_board_pool, Decision, ServiceManager};
use shell::tenant::TenantId;

/// Records the request id of every delivery its shell hands it, with the
/// arrival time, and passes the delivery on to the role behind it.
struct IdTap {
    role: ComponentId,
    seen: Vec<(SimTime, u64)>,
}

impl Component<Msg> for IdTap {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Ok(del) = msg.downcast::<LtlDeliver>() {
            let id = decode_reply(&del.payload).expect("a request carries its id");
            self.seen.push((ctx.now(), id));
            ctx.send(self.role, Msg::LtlDeliver(del));
        }
    }
}

/// An `AcceleratorRole` at `addr` behind an [`IdTap`]; returns both.
fn tapped_role(
    cluster: &mut Cluster,
    addr: NodeAddr,
    service: SimDuration,
    recv: u16,
    send: u16,
) -> (ComponentId, ComponentId) {
    let shell_id = cluster.shell_id(addr).expect("populated");
    let mut role = AcceleratorRole::new(shell_id, service, 0.1, 4, 256);
    role.add_reply_route(recv, send);
    let role = cluster.engine_mut().add_component(role);
    let tap = cluster.engine_mut().add_component(IdTap {
        role,
        seen: Vec::new(),
    });
    cluster.set_consumer(addr, tap);
    (role, tap)
}

/// The ids of `RemoteClient::new(.., 1)`'s requests `0..n`, in issue order.
fn issued(n: u64) -> Vec<u64> {
    (0..n).map(|k| 1 << 48 | k).collect()
}

fn seen(cluster: &Cluster, tap: ComponentId) -> Vec<(SimTime, u64)> {
    cluster.component::<IdTap>(tap).expect("tap").seen.clone()
}

#[test]
fn client_fails_over_to_spare_and_finishes_all_requests() {
    let mut cluster = ClusterBuilder::paper(91, 1).build();

    // HaaS: primary leased from the pool, one spare left unallocated.
    let primary = NodeAddr::new(0, 1, 0);
    let spare = NodeAddr::new(0, 2, 0);
    let mut pool = whole_board_pool([primary, spare]);
    let mut sm = ServiceManager::new("dnn", TenantId(0));
    sm.grow(&mut pool, SimTime::ZERO, 1).unwrap();
    assert_eq!(sm.endpoints(), vec![primary]);

    let client_addr = NodeAddr::new(0, 5, 3);
    cluster.add_shell(client_addr);
    cluster.add_shell(primary);
    cluster.add_shell(spare);

    // Static persistent connections to both primary and spare.
    let (to_primary, p_send, _c_recv1, p_recv) = cluster.connect_pair(client_addr, primary);
    let (to_spare, s_send, _c_recv2, s_recv) = cluster.connect_pair(client_addr, spare);

    let service = SimDuration::from_micros(200);
    let (_, primary_tap) = tapped_role(&mut cluster, primary, service, p_recv, p_send);
    let (spare_role, spare_tap) = tapped_role(&mut cluster, spare, service, s_recv, s_send);

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
        .engine()
        .component::<RemoteClient>(client_id)
        .expect("client exists");
    assert_eq!(client.failovers(), 1);
    assert_eq!(client.outstanding(), 0, "no request stranded");
    assert_eq!(client.completed(), total as usize);
    // In-flight requests at failure time show the detection delay (a few
    // ms of retries) in the tail.
    let p100 = client.latencies().percentile(100.0).unwrap();
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

    // Each role saw every id as issued, once and in order: the failover
    // re-issued a burst of requests at one instant, each while the one
    // before it was still in flight, so each in a buffer of its own.
    let (primary_seen, spare_seen) = (seen(&cluster, primary_tap), seen(&cluster, spare_tap));
    for log in [&primary_seen, &spare_seen] {
        assert!(log.windows(2).all(|w| w[0].1 < w[1].1), "{log:?}");
    }
    let issued_at = |id: u64| SimTime::from_micros((id & 0xFFFF) * 500);
    let reissued = spare_seen
        .iter()
        .filter(|&&(_, id)| issued_at(id) < spare_seen[0].0)
        .count();
    assert!(reissued >= 2, "the failover re-issued {reissued} requests");
    let mut all: Vec<u64> = primary_seen
        .iter()
        .chain(&spare_seen)
        .map(|s| s.1)
        .collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all, issued(total));

    // HaaS bookkeeping mirrors the event.
    let now = cluster.now();
    pool.board_down(now, primary).unwrap();
    let lease = match pool.last_decisions() {
        [Decision::BoardDown { lost, .. }] => lost[0],
        other => panic!("primary's board went down: {other:?}"),
    };
    let replacement = sm
        .handle_failure(&mut pool, now, lease)
        .unwrap()
        .expect("spare grantable");
    assert_eq!(replacement, spare);
    assert_eq!(sm.endpoints(), vec![spare]);
}

/// Frames that wait out a link outage unacknowledged are resent from
/// their own wire image: the client writes its next requests into the
/// payload buffer meanwhile, and the role still sees every id as issued.
#[test]
fn requests_unacked_across_a_link_outage_arrive_as_issued() {
    let mut cluster = ClusterBuilder::paper(92, 1).build();
    let (client_addr, role_addr) = (NodeAddr::new(0, 5, 3), NodeAddr::new(0, 1, 0));
    let client_shell = cluster.add_shell(client_addr);
    cluster.add_shell(role_addr);
    let (to_role, to_client, _, role_recv) = cluster.connect_pair(client_addr, role_addr);
    let (role, tap) = tapped_role(
        &mut cluster,
        role_addr,
        SimDuration::from_micros(2),
        role_recv,
        to_client,
    );
    let client = RemoteClient::new(client_shell, to_role, 512, 1);
    let client = cluster.engine_mut().add_component(client);
    cluster.set_consumer(client_addr, client);

    // A request every 50 us for 3 ms; the role's link is down for 300 us
    // of it, far less than the transport takes to give up.
    let total = 60u64;
    for k in 0..total {
        cluster.engine_mut().schedule(
            SimTime::from_micros(k * 50),
            client,
            Msg::custom(IssueRequest),
        );
    }
    let tor = cluster.fabric().tor_switch(role_addr.pod, role_addr.tor);
    let port = PortId(role_addr.host);
    for (at_us, up) in [(1_000, false), (1_300, true)] {
        cluster.engine_mut().schedule(
            SimTime::from_micros(at_us),
            tor,
            Msg::Switch(SwitchCmd::SetLinkUp { port, up }),
        );
    }
    cluster.run_to_idle();

    let retransmits = cluster.shell(client_addr).ltl().stats_view().retransmits;
    assert!(retransmits > 0, "the outage stranded frames");
    let ids: Vec<u64> = seen(&cluster, tap).iter().map(|s| s.1).collect();
    assert_eq!(ids, issued(total), "every id once, in order, as issued");
    let client = cluster.component::<RemoteClient>(client).expect("client");
    assert_eq!(client.completed(), total as usize);
    let role = cluster.component::<AcceleratorRole>(role).expect("role");
    assert_eq!(role.completed(), total);
}

/// Replies parked at once each take a slot with a buffer of its own:
/// bursts of three requests keep three replies in service together, and
/// every reply reaches the client with its own id.
#[test]
fn replies_parked_at_once_all_arrive_intact() {
    let mut cluster = ClusterBuilder::paper(93, 1).build();
    let (client_addr, role_addr) = (NodeAddr::new(0, 0, 0), NodeAddr::new(0, 0, 1));
    let client_shell = cluster.add_shell(client_addr);
    cluster.add_shell(role_addr);
    let (to_role, to_client, _, role_recv) = cluster.connect_pair(client_addr, role_addr);
    let (role, tap) = tapped_role(
        &mut cluster,
        role_addr,
        SimDuration::from_micros(50),
        role_recv,
        to_client,
    );
    let client = RemoteClient::new(client_shell, to_role, 512, 1);
    let client = cluster.engine_mut().add_component(client);
    cluster.set_consumer(client_addr, client);

    let (bursts, per_burst) = (20u64, 3);
    for k in 0..bursts * per_burst {
        cluster.engine_mut().schedule(
            SimTime::from_micros(k / per_burst * 500),
            client,
            Msg::custom(IssueRequest),
        );
    }
    cluster.run_to_idle();

    let ids: Vec<u64> = seen(&cluster, tap).iter().map(|s| s.1).collect();
    assert_eq!(ids, issued(bursts * per_burst));
    let role = cluster.component::<AcceleratorRole>(role).expect("role");
    assert_eq!(role.completed(), bursts * per_burst);
    let client = cluster.component::<RemoteClient>(client).expect("client");
    assert_eq!(client.completed(), (bursts * per_burst) as usize);
    assert_eq!(client.outstanding(), 0, "no reply carried another's id");
}
