//! The elastic scheduler answers every placement question from derived
//! indexes. [`ElasticScheduler::indexes_match_rescan`] rebuilds them from
//! the slots and the lease table by full scan; these tests drive API
//! sequences the trace generator never produces and require the two to
//! agree after every call (debug builds also assert it inside every
//! mutator; calling it here keeps `cargo test --release` honest).

use std::collections::HashMap;

use dcnet::NodeAddr;
use dcsim::{SimDuration, SimTime};
use haas::{Decision, ElasticConfig, ElasticScheduler, TenantClass};
use proptest::prelude::*;
use shell::tenant::{TenantCaps, TenantId};

fn caps() -> TenantCaps {
    TenantCaps {
        er_mbps: 1_000,
        ltl_credits: 16,
    }
}

fn board(i: usize) -> NodeAddr {
    NodeAddr::new(0, (i / 4) as u16, (i % 4) as u16)
}

/// One API call, drawn as raw numbers and interpreted against the
/// scheduler's state at that point: `(selector, id entropy, ALMs, class,
/// time step ms)`.
type RawOp = (u8, u64, u32, u8, u64);

fn drive(sched: &mut ElasticScheduler, boards: usize, ops: &[RawOp]) {
    let mut now = SimTime::ZERO;
    let mut fresh_req = 0u64;
    for &(selector, entropy, alms, class, step_ms) in ops {
        // A third of the calls share their predecessor's instant.
        if step_ms >= 50 {
            now += SimDuration::from_millis(step_ms - 50);
        }
        match selector {
            0..=44 => {
                let req = match entropy % 16 {
                    // A request id seen before: queued, active or done.
                    0 | 1 if fresh_req > 0 => (entropy >> 8) % fresh_req,
                    // Ids at the top of the range.
                    2 => u64::MAX - (entropy >> 8) % 3,
                    _ => {
                        fresh_req += 1;
                        fresh_req - 1
                    }
                };
                // Larger than any region now and then: a typed reject.
                let _ = sched.request(
                    now,
                    req,
                    TenantId(req as u32),
                    TenantClass::ALL[class as usize],
                    alms,
                    entropy & 0x80 != 0,
                    caps(),
                );
            }
            // Unknown, queued, active and done requests alike.
            45..=69 => {
                let _ = sched.release(now, entropy % (fresh_req + 3));
            }
            70..=75 => {
                let leases = sched.leases().map(|l| l.id).max().map_or(0, |id| id + 1);
                let _ = sched.preempt(now, entropy % (leases + 2));
            }
            76..=79 => {
                let _ = sched.reclaim_spot(now);
            }
            // Down boards go down again and up boards come up again.
            80..=87 => {
                let _ = sched.board_down(now, board(entropy as usize % boards));
            }
            88..=95 => {
                let _ = sched.board_up(now, board(entropy as usize % boards));
            }
            _ => sched.advance_to(now),
        }
        assert_eq!(sched.indexes_match_rescan(), Ok(()), "after op {selector}");
    }
    // Settle every eviction and a few defrag boundaries.
    sched.advance_to(now + SimDuration::from_secs(30));
    assert_eq!(sched.indexes_match_rescan(), Ok(()), "after settling");
}

proptest! {
    #[test]
    fn indexes_match_a_rescan_after_every_call(
        // 1-6 regions a board, sizes drawn from few values (equal sizes
        // tie-break on registration order) and from a wide range.
        carves in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(19_002u32), Just(38_005u32), 4_000u32..60_000],
                1..7,
            ),
            1..9,
        ),
        one_carve in any::<bool>(),
        window_ms in 20u64..800,
        defrag_ms in prop_oneof![Just(0u64), 100u64..3_000],
        spot_reserve_permille in prop_oneof![Just(0u32), 50u32..500],
        ops in proptest::collection::vec(
            (0u8..100, any::<u64>(), 0u32..50_000, 0u8..3, 0u64..200),
            1..300,
        ),
    ) {
        let mut sched = ElasticScheduler::new(ElasticConfig {
            eviction_window: SimDuration::from_millis(window_ms),
            defrag_period: SimDuration::from_millis(defrag_ms),
            spot_reserve_permille,
        });
        for (i, carve) in carves.iter().enumerate() {
            let carve = if one_carve { &carves[0] } else { carve };
            sched.add_board(board(i), carve).unwrap();
        }
        drive(&mut sched, carves.len(), &ops);
    }
}

/// What a request id means to the scheduler, as a plain table keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    /// Queued or holding a lease.
    Live,
    /// Released or rejected.
    Done,
}

/// A request id: clustered near 0, near `2^32` and near `u64::MAX` so ids
/// repeat, sit next to each other and leave gaps, or anywhere at all.
fn request_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..48,
        (1u64 << 32) - 24..(1u64 << 32) + 24,
        u64::MAX - 47..,
        any::<u64>(),
    ]
}

proptest! {
    /// The scheduler keeps only live requests in its state table and the
    /// ids it ever accepted as ranges; a plain map of every id ever seen
    /// must give the same answers. No class here may be preempted and
    /// nothing evicts, so a request is live from its acceptance until its
    /// release: a live id is refused (`DuplicateRequest`), a done id
    /// releases as a no-op (`Ok`) and may be reused, an id never seen is
    /// `UnknownLease`, and one too large for any region is done at once.
    #[test]
    fn request_ids_answer_like_a_map_of_every_id_seen(
        regions in proptest::collection::vec(10_000u32..40_000, 1..5),
        ops in proptest::collection::vec(
            (any::<bool>(), request_id(), 5_000u32..45_000, any::<bool>()),
            1..200,
        ),
    ) {
        use haas::ElasticError::{DuplicateRequest, RequestTooLarge, UnknownLease};
        let mut sched = ElasticScheduler::new(ElasticConfig {
            eviction_window: SimDuration::from_millis(100),
            defrag_period: SimDuration::ZERO,
            spot_reserve_permille: 0,
        });
        sched.add_board(board(0), &regions).unwrap();
        let largest = *regions.iter().max().unwrap();
        let mut model: HashMap<u64, Model> = HashMap::new();
        let mut now = SimTime::ZERO;
        for (is_request, req, alms, guaranteed) in ops {
            now += SimDuration::from_millis(1);
            if is_request {
                let class = if guaranteed {
                    TenantClass::Guaranteed
                } else {
                    TenantClass::Standard
                };
                let got = sched.request(now, req, TenantId(1), class, alms, false, caps());
                let want = match model.get(&req) {
                    Some(Model::Live) => Err(DuplicateRequest(req)),
                    _ if alms > largest => Err(RequestTooLarge { alms, largest }),
                    _ => Ok(()),
                };
                prop_assert_eq!(got, want, "request {}", req);
                if want != Err(DuplicateRequest(req)) {
                    model.insert(req, if want.is_ok() { Model::Live } else { Model::Done });
                }
            } else {
                let got = sched.release(now, req);
                let want = match model.get(&req) {
                    None => Err(UnknownLease(req)),
                    Some(_) => Ok(()),
                };
                prop_assert_eq!(got, want, "release {}", req);
                if let Some(state) = model.get_mut(&req) {
                    *state = Model::Done;
                }
            }
            prop_assert_eq!(sched.indexes_match_rescan(), Ok(()));
            let live = model.values().filter(|&&m| m == Model::Live).count();
            prop_assert_eq!(sched.queued_reqs().len() + sched.leases().count(), live);
        }
    }
}

/// Request ids are table keys, not positions, and a done id is
/// remembered: ids at the top of the range, a live id refused, a done id
/// released again (`Ok`, a no-op) against an id never seen
/// (`UnknownLease`), and a done id reused.
#[test]
fn request_ids_near_the_top_done_and_never_seen() {
    use haas::ElasticError::{DuplicateRequest, UnknownLease};
    let mut s = ElasticScheduler::new(ElasticConfig {
        eviction_window: SimDuration::from_millis(100),
        defrag_period: SimDuration::ZERO,
        spot_reserve_permille: 0,
    });
    s.add_board(board(0), &[20_000, 20_000]).unwrap();
    let ms = SimTime::from_millis;
    let request = |s: &mut ElasticScheduler, at: SimTime, req: u64| {
        let result = s.request(
            at,
            req,
            TenantId(1),
            TenantClass::Standard,
            15_000,
            false,
            caps(),
        );
        assert_eq!(s.indexes_match_rescan(), Ok(()), "after request {req}");
        result
    };
    let top = u64::MAX;
    // Two leases (ids 0 and 1) and a waiter.
    for req in [top, top - 1, top - 2] {
        request(&mut s, ms(0), req).unwrap();
    }
    assert_eq!(s.queued_reqs(), vec![top - 2]);
    // Live ids are refused, queued or leased.
    assert_eq!(request(&mut s, ms(1), top), Err(DuplicateRequest(top)));
    assert_eq!(
        request(&mut s, ms(1), top - 2),
        Err(DuplicateRequest(top - 2))
    );
    // Releasing the top id hands its region to the waiter (lease 2).
    s.release(ms(2), top).unwrap();
    assert_eq!(
        s.last_decisions().last(),
        Some(&Decision::Grant {
            req: top - 2,
            lease: 2,
            at: s.leases().last().unwrap().at,
            waited_ns: 2_000_000,
        })
    );
    // A done id releases again as a no-op; an id never seen is unknown.
    assert_eq!(s.release(ms(3), top), Ok(()));
    assert_eq!(
        s.last_decisions(),
        [Decision::Release {
            req: top,
            lease: None
        }]
    );
    assert_eq!(s.release(ms(3), top - 3), Err(UnknownLease(top - 3)));
    assert_eq!(
        s.last_decisions(),
        [Decision::Release {
            req: top - 3,
            lease: None
        }]
    );
    // A done id may be reused: it waits, then takes lease 3.
    request(&mut s, ms(4), top).unwrap();
    assert_eq!(s.queued_reqs(), vec![top]);
    s.release(ms(5), top - 1).unwrap();
    let live: Vec<(u64, u64)> = s.leases().map(|l| (l.id, l.req)).collect();
    assert_eq!(live, [(2, top - 2), (3, top)]);
    assert_eq!(s.indexes_match_rescan(), Ok(()));
}

/// A victim that releases *inside* its eviction window leaves a region
/// with an eviction pending and no lease: neither free nor a victim until
/// the window closes.
#[test]
fn region_vacated_inside_its_eviction_window_stays_reserved_until_due() {
    let window = SimDuration::from_millis(100);
    let mut s = ElasticScheduler::new(ElasticConfig {
        eviction_window: window,
        defrag_period: SimDuration::ZERO,
        spot_reserve_permille: 0,
    });
    s.add_board(board(0), &[20_000]).unwrap();
    let request = |s: &mut ElasticScheduler, at: SimTime, req: u64, class: TenantClass| {
        s.request(at, req, TenantId(req as u32), class, 15_000, true, caps())
            .unwrap();
    };
    request(&mut s, SimTime::ZERO, 0, TenantClass::Spot);
    // Guaranteed request 1 evicts the spot lease and reserves its region.
    let t0 = SimTime::from_millis(10);
    request(&mut s, t0, 1, TenantClass::Guaranteed);
    assert!(matches!(
        s.last_decisions().last(),
        Some(Decision::Evict {
            victim: 0,
            for_req: 1,
            ..
        })
    ));
    // The victim leaves on its own half-way through the window.
    s.release(SimTime::from_millis(50), 0).unwrap();
    assert_eq!(s.leases().count(), 0);
    assert_eq!(s.indexes_match_rescan(), Ok(()));
    // The empty region is not free: a second guaranteed request queues
    // behind the reservation, and finds nothing to evict either.
    request(&mut s, SimTime::from_millis(60), 2, TenantClass::Guaranteed);
    assert_eq!(s.last_decisions(), [Decision::Queue { req: 2 }]);
    assert_eq!(s.queued_reqs(), vec![1, 2]);
    assert_eq!(s.reclaim_spot(SimTime::from_millis(61)).ok(), None);
    // When the window closes the region goes to the request it was
    // reserved for.
    s.advance_to(t0 + window);
    assert!(matches!(
        s.last_decisions().last(),
        Some(Decision::Grant { req: 1, .. })
    ));
    assert_eq!(s.queued_reqs(), vec![2]);
    assert_eq!(s.indexes_match_rescan(), Ok(()));
}
