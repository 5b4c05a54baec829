//! Negative-path tests for the elastic multi-tenant API: every bogus
//! operation returns a typed [`ElasticError`], never a panic, and the
//! scheduler's books stay consistent afterwards.

use dcnet::NodeAddr;
use dcsim::SimTime;
use haas::{ElasticConfig, ElasticError, ElasticScheduler, TenantClass};
use shell::tenant::{TenantCaps, TenantId};

fn caps() -> TenantCaps {
    TenantCaps {
        er_mbps: 1_000,
        ltl_credits: 16,
    }
}

fn sched() -> ElasticScheduler {
    let mut s = ElasticScheduler::new(ElasticConfig::default());
    s.add_board(NodeAddr::new(0, 0, 1), &[10_000, 20_000])
        .unwrap();
    s
}

#[test]
fn oversized_request_is_a_typed_reject() {
    let mut s = sched();
    let err = s
        .request(
            SimTime::ZERO,
            0,
            TenantId(1),
            TenantClass::Guaranteed,
            25_000,
            false,
            caps(),
        )
        .unwrap_err();
    assert_eq!(
        err,
        ElasticError::RequestTooLarge {
            alms: 25_000,
            largest: 20_000
        }
    );
    assert_eq!(s.leases().count(), 0);
    assert!(s.queued_reqs().is_empty(), "rejected, not queued");
}

#[test]
fn oversized_request_against_empty_pool_reports_zero() {
    let mut s = ElasticScheduler::new(ElasticConfig::default());
    let err = s
        .request(
            SimTime::ZERO,
            0,
            TenantId(1),
            TenantClass::Spot,
            1,
            true,
            caps(),
        )
        .unwrap_err();
    assert_eq!(
        err,
        ElasticError::RequestTooLarge {
            alms: 1,
            largest: 0
        }
    );
}

#[test]
fn preempting_a_non_preemptible_lease_errors() {
    let mut s = sched();
    s.request(
        SimTime::ZERO,
        0,
        TenantId(1),
        TenantClass::Guaranteed,
        9_000,
        false,
        caps(),
    )
    .unwrap();
    let lease = s.leases().next().unwrap().id;
    assert_eq!(
        s.preempt(SimTime::from_micros(1), lease).unwrap_err(),
        ElasticError::NotPreemptible(lease)
    );
    assert_eq!(s.leases().count(), 1, "lease untouched");
    // A standard lease that did not opt in is equally protected.
    s.request(
        SimTime::from_micros(2),
        1,
        TenantId(2),
        TenantClass::Standard,
        9_000,
        false,
        caps(),
    )
    .unwrap();
    let std_lease = s.leases().map(|l| l.id).max().unwrap();
    assert_eq!(
        s.preempt(SimTime::from_micros(3), std_lease).unwrap_err(),
        ElasticError::NotPreemptible(std_lease)
    );
}

#[test]
fn preempting_unknown_lease_errors() {
    let mut s = sched();
    assert_eq!(
        s.preempt(SimTime::ZERO, 42).unwrap_err(),
        ElasticError::UnknownLease(42)
    );
}

#[test]
fn double_release_is_rejected_not_double_freed() {
    let mut s = sched();
    s.request(
        SimTime::ZERO,
        0,
        TenantId(1),
        TenantClass::Standard,
        9_000,
        false,
        caps(),
    )
    .unwrap();
    s.release(SimTime::from_micros(1), 0).unwrap();
    assert_eq!(s.leases().count(), 0);
    // Second release of the same request: accepted as a no-op decision
    // (the trace path), lease count unchanged, no panic.
    s.release(SimTime::from_micros(2), 0).unwrap();
    assert_eq!(s.leases().count(), 0);
    // A request id that never existed is a typed error.
    assert_eq!(
        s.release(SimTime::from_micros(3), 99).unwrap_err(),
        ElasticError::UnknownLease(99)
    );
}

#[test]
fn request_id_that_is_still_live_is_a_typed_reject() {
    let mut s = sched();
    let ask = |s: &mut ElasticScheduler, us: u64, req: u64, alms: u32| {
        s.request(
            SimTime::from_micros(us),
            req,
            TenantId(1),
            TenantClass::Guaranteed,
            alms,
            false,
            caps(),
        )
    };
    ask(&mut s, 0, 0, 9_000).unwrap();
    ask(&mut s, 1, 1, 15_000).unwrap();
    ask(&mut s, 2, 2, 18_000).unwrap();
    assert_eq!(s.queued_reqs(), vec![2], "both regions are taken");
    let (decisions, placement) = (s.decision_count(), s.placement());
    // While leased and while queued (here even too large for the pool):
    // refused, no decision, books untouched.
    for (us, req, alms) in [(3, 0, 15_000), (4, 2, 5_000), (5, 2, 25_000)] {
        assert_eq!(
            ask(&mut s, us, req, alms).unwrap_err(),
            ElasticError::DuplicateRequest(req)
        );
        assert_eq!(s.decision_count(), decisions);
        assert_eq!(s.last_decisions(), []);
        assert_eq!(s.placement(), placement);
        assert_eq!(s.queued_reqs(), vec![2]);
        assert_eq!(s.leases().count(), 2);
        assert_eq!(s.indexes_match_rescan(), Ok(()));
    }
    // Once the request is done its id may be reused.
    s.release(SimTime::from_micros(6), 0).unwrap();
    ask(&mut s, 7, 0, 9_000).unwrap();
    assert_eq!(s.leases().filter(|l| l.req == 0).count(), 1);
}

#[test]
fn reclaiming_from_an_empty_spot_pool_errors() {
    let mut s = sched();
    // Only non-spot leases live.
    s.request(
        SimTime::ZERO,
        0,
        TenantId(1),
        TenantClass::Guaranteed,
        9_000,
        false,
        caps(),
    )
    .unwrap();
    assert_eq!(
        s.reclaim_spot(SimTime::from_micros(1)).unwrap_err(),
        ElasticError::SpotPoolEmpty
    );
    assert_eq!(s.leases().count(), 1, "guaranteed lease never reclaimed");
}

#[test]
fn board_ops_on_unknown_boards_error() {
    let mut s = sched();
    let ghost = NodeAddr::new(3, 3, 3);
    assert_eq!(
        s.board_down(SimTime::ZERO, ghost).unwrap_err(),
        ElasticError::UnknownBoard(ghost)
    );
    assert_eq!(
        s.board_up(SimTime::ZERO, ghost).unwrap_err(),
        ElasticError::UnknownBoard(ghost)
    );
    assert_eq!(
        s.add_board(NodeAddr::new(0, 0, 1), &[1]).unwrap_err(),
        ElasticError::DuplicateBoard(NodeAddr::new(0, 0, 1))
    );
}

#[test]
fn carve_with_more_regions_than_a_region_index_can_number_is_rejected() {
    // `RegionRef::region` is a `u8`: region 256 would alias region 0 and
    // the pool would hand one region to two tenants.
    let mut s = ElasticScheduler::new(ElasticConfig::default());
    let board = NodeAddr::new(0, 0, 1);
    let err = s.add_board(board, &[1_000; 257]).unwrap_err();
    assert_eq!(
        err,
        ElasticError::TooManyRegions {
            board,
            regions: 257
        }
    );
    assert!(err.to_string().contains("limit 256"), "{err}");
    // Nothing was registered: no capacity, and the address is still free.
    assert_eq!(s.pool_alms(), 0);
    assert!(s.placement().is_empty());
    s.add_board(board, &[1_000; 256]).unwrap();
    // At the limit every region is its own slot: 256 tenants, 256 regions.
    for req in 0..256u64 {
        s.request(
            SimTime::ZERO,
            req,
            TenantId(req as u32),
            TenantClass::Guaranteed,
            1_000,
            false,
            caps(),
        )
        .unwrap();
    }
    let mut regions: Vec<u8> = s.leases().map(|l| l.at.region).collect();
    regions.sort_unstable();
    regions.dedup();
    assert_eq!(regions.len(), 256, "one region per tenant");
    assert!(s.queued_reqs().is_empty());
}

#[test]
fn errors_display_without_panicking() {
    let errs: Vec<ElasticError> = vec![
        ElasticError::RequestTooLarge {
            alms: 7,
            largest: 3,
        },
        ElasticError::NotPreemptible(1),
        ElasticError::UnknownLease(2),
        ElasticError::SpotPoolEmpty,
        ElasticError::UnknownBoard(NodeAddr::new(1, 2, 3)),
        ElasticError::DuplicateBoard(NodeAddr::new(1, 2, 3)),
        ElasticError::DuplicateRequest(4),
        ElasticError::TooManyRegions {
            board: NodeAddr::new(1, 2, 3),
            regions: 300,
        },
    ];
    for e in errs {
        assert!(!e.to_string().is_empty());
    }
}

#[test]
fn spot_reclaim_respects_eviction_window() {
    let mut s = sched();
    s.request(
        SimTime::ZERO,
        0,
        TenantId(9),
        TenantClass::Spot,
        9_000,
        true,
        caps(),
    )
    .unwrap();
    let victim = s.reclaim_spot(SimTime::from_micros(1)).unwrap();
    // Victim still live inside the window...
    assert!(s.leases().any(|l| l.id == victim));
    // ...and gone after it.
    s.advance_to(SimTime::from_micros(1) + ElasticConfig::default().eviction_window);
    assert!(!s.leases().any(|l| l.id == victim));
    // Immediately after, the pool is empty again.
    assert_eq!(
        s.reclaim_spot(SimTime::from_secs(2)).unwrap_err(),
        ElasticError::SpotPoolEmpty
    );
}
