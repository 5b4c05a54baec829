//! Negative-path coverage for the HaaS control plane: every "can't
//! happen in the happy path" input must be absorbed without a panic and
//! must leave the pool's books consistent.

use dcnet::{Msg, NodeAddr};
use dcsim::{Engine, SimTime};
use haas::{
    whole_board_alms, whole_board_pool, Decision, ElasticError, ElasticScheduler, FailureMonitor,
    NodeDownReport, ServiceManager,
};
use shell::tenant::TenantId;

const T0: SimTime = SimTime::ZERO;

fn addrs(n: u16) -> Vec<NodeAddr> {
    (0..n).map(|h| NodeAddr::new(0, 0, h)).collect()
}

fn pool(n: u16) -> ElasticScheduler {
    whole_board_pool(addrs(n))
}

fn sm() -> ServiceManager {
    ServiceManager::new("svc", TenantId(1))
}

/// Boards free to lease, by the pool's own capacity count.
fn free(pool: &ElasticScheduler) -> u64 {
    (pool.pool_alms() - pool.used_alms()) / u64::from(whole_board_alms()[0])
}

/// Counts free, leased and down boards three independent ways and checks
/// that they add up to the registered boards in `addrs` — the books
/// balance no matter what was thrown at the allocator.
fn assert_books_balance(pool: &ElasticScheduler, addrs: &[NodeAddr]) {
    let registered = addrs.iter().filter(|a| pool.board(**a).is_some()).count();
    let down = addrs
        .iter()
        .filter(|a| matches!(pool.board(**a), Some((false, _))))
        .count();
    let leased = pool.leases().count();
    assert_eq!(free(pool) as usize + leased + down, registered);
}

/// The lease lost when `addr` goes down.
fn fail(pool: &mut ElasticScheduler, addr: NodeAddr) -> u64 {
    pool.board_down(T0, addr).unwrap();
    match pool.last_decisions() {
        [Decision::BoardDown { lost, .. }] => lost[0],
        other => panic!("board down decided {other:?}"),
    }
}

#[test]
fn request_from_empty_pool_fails_cleanly() {
    let mut pool = pool(0);
    let err = sm().grow(&mut pool, T0, 1).unwrap_err();
    assert_eq!(
        err,
        ElasticError::InsufficientCapacity { wanted: 1, free: 0 }
    );
    assert_eq!(pool.pool_alms(), 0);
    assert_eq!(pool.leases().count(), 0);
}

#[test]
fn oversized_request_grants_nothing() {
    let mut pool = pool(3);
    let mut sm = sm();
    // Atomicity: a request for more than the pool holds must not leak
    // partial leases.
    let err = sm.grow(&mut pool, T0, 4).unwrap_err();
    assert_eq!(
        err,
        ElasticError::InsufficientCapacity { wanted: 4, free: 3 }
    );
    assert_eq!(free(&pool), 3, "partial grant leaked leases");
    // The same request sized to the pool still succeeds afterwards.
    sm.grow(&mut pool, T0, 3).unwrap();
    assert_eq!(sm.endpoints(), addrs(3));
}

#[test]
fn bogus_lease_release_is_rejected() {
    let mut pool = pool(2);
    let mut sm = sm();
    sm.grow(&mut pool, T0, 1).unwrap();
    let req = pool.leases().next().unwrap().req;
    assert_eq!(
        pool.release(T0, req + 1000),
        Err(ElasticError::UnknownLease(req + 1000))
    );
    // Double release of a real lease: the second frees nothing.
    pool.release(T0, req).unwrap();
    pool.release(T0, req).unwrap();
    assert_eq!(
        pool.last_decisions(),
        [Decision::Release { req, lease: None }]
    );
    assert_eq!(free(&pool), 2);
}

#[test]
fn failure_ops_on_unknown_nodes_are_noops() {
    let mut e: Engine<Msg> = Engine::new(1);
    let mut pool = pool(2);
    let stranger = NodeAddr::new(9, 9, 9);
    // Neither a down-report nor a repair can put an unregistered board
    // into the books: it could never be leased.
    assert_eq!(
        pool.board_down(T0, stranger),
        Err(ElasticError::UnknownBoard(stranger))
    );
    assert_eq!(
        pool.board_up(T0, stranger),
        Err(ElasticError::UnknownBoard(stranger))
    );
    assert_eq!(pool.board(stranger), None);
    pool.board_up(T0, addrs(1)[0]).unwrap(); // repair of a healthy board
    assert_books_balance(&pool, &addrs(2));
    // The monitor, repairing after 1 µs, likewise leaves its pool alone.
    let mon = FailureMonitor::new(pool, Some(dcsim::SimDuration::from_micros(1)));
    let mon_id = e.add_component(mon);
    e.schedule(T0, mon_id, Msg::custom(NodeDownReport { addr: stranger }));
    e.run_to_idle();
    let mon = e.component::<FailureMonitor>(mon_id).unwrap();
    assert!(mon.records().is_empty());
    assert_eq!(mon.repairs(), 0);
    let mut books = addrs(2);
    books.push(stranger);
    assert_books_balance(mon.pool(), &books);
    assert_eq!(free(mon.pool()), 2);
}

#[test]
fn sm_failure_with_empty_spare_pool_degrades_without_panic() {
    let mut pool = pool(2);
    let mut sm = sm();
    // Lease the whole pool: no spares remain.
    sm.grow(&mut pool, T0, 2).unwrap();
    let victim = sm.endpoints()[0];
    let lease = fail(&mut pool, victim);
    let err = sm.handle_failure(&mut pool, T0, lease).unwrap_err();
    assert_eq!(
        err,
        ElasticError::InsufficientCapacity { wanted: 1, free: 0 }
    );
    // Degraded but consistent: the dead endpoint is gone, the survivor
    // keeps serving, and no replacement was charged.
    assert!(!sm.endpoints().contains(&victim));
    assert_eq!(sm.endpoints().len(), 1);
    assert_eq!(sm.replacements(), 0);
    assert_books_balance(&pool, &addrs(2));
    // A repair makes the node allocatable again and the service can
    // re-grow to strength.
    pool.board_up(T0, victim).unwrap();
    sm.grow(&mut pool, T0, 1).unwrap();
    assert_eq!(sm.endpoints().len(), 2);
    assert_books_balance(&pool, &addrs(2));
}

#[test]
fn handle_failure_for_foreign_lease_changes_nothing() {
    let mut pool = pool(4);
    let mut sm = sm();
    sm.grow(&mut pool, T0, 1).unwrap();
    // A lease the SM never held (another service's, already torn down).
    assert_eq!(sm.handle_failure(&mut pool, T0, 10_000), Ok(None));
    assert_eq!(sm.endpoints().len(), 1);
    assert_eq!(sm.replacements(), 0);
    assert_eq!(free(&pool), 3);
}

#[test]
fn monitor_absorbs_reports_for_already_drained_nodes() {
    let mut e: Engine<Msg> = Engine::new(1);
    let mut pool = pool(3);
    let mut sm = sm();
    sm.grow(&mut pool, T0, 2).unwrap();
    let victim = sm.endpoints()[0];
    let mut mon = FailureMonitor::new(pool, None);
    mon.add_service(sm);
    let mon_id = e.add_component(mon);
    // First report drains the node; stragglers keep reporting the same
    // dead node long after.
    for t in [1u64, 50, 51, 900] {
        e.schedule(
            SimTime::from_micros(t),
            mon_id,
            Msg::custom(NodeDownReport { addr: victim }),
        );
    }
    e.run_to_idle();
    let mon = e.component::<FailureMonitor>(mon_id).unwrap();
    assert_eq!(mon.records().len(), 1, "one recovery for one failure");
    assert_eq!(mon.duplicate_reports(), 3);
    assert_eq!(mon.pool().board(victim), Some((false, None)));
    assert_eq!(mon.services()[0].replacements(), 1);
    assert_books_balance(mon.pool(), &addrs(3));
}

#[test]
fn monitor_with_no_services_still_drains_reported_nodes() {
    let mut e: Engine<Msg> = Engine::new(1);
    let mon = FailureMonitor::new(pool(2), None);
    let mon_id = e.add_component(mon);
    let addr = NodeAddr::new(0, 0, 1);
    e.schedule(T0, mon_id, Msg::custom(NodeDownReport { addr }));
    e.run_to_idle();
    let mon = e.component::<FailureMonitor>(mon_id).unwrap();
    assert_eq!(mon.records().len(), 1);
    assert!(mon.records()[0].service.is_none());
    assert_eq!(mon.pool().board(addr), Some((false, None)));
    assert_eq!(free(mon.pool()), 1);
}
