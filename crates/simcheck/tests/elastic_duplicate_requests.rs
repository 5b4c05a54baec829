//! Request ids that are still live are refused, identically in the real
//! scheduler and the reference.
//!
//! No trace generator emits a duplicate id, so the seed sweep never
//! exercises the rule. Before it existed, a request reusing the id of one
//! still queued could hand the reservation it made to its larger
//! namesake, seating a lease bigger than its region, and the next defrag
//! pass then booked that region twice (`lease.dup`, and the real
//! scheduler and the reference parted ways). This trace is written by
//! hand: a duplicate while queued, duplicates while leased, then defrag
//! boundaries.

use catapult::elastic::ElasticTraceConfig;
use dcsim::{SimDuration, SimTime};
use haas::{ElasticConfig, LeaseEvent, LeaseEventKind, TenantClass};
use shell::tenant::{TenantCaps, TenantId};
use simcheck::elastic::ElasticSpec;
use simcheck::Case;

fn request(ms: u64, req: u64, class: TenantClass, alms: u32) -> LeaseEvent {
    LeaseEvent {
        at: SimTime::from_millis(ms),
        kind: LeaseEventKind::Request {
            req,
            tenant: TenantId(req as u32),
            class,
            alms,
            preemptible: true,
            caps: TenantCaps {
                er_mbps: 1_000,
                ltl_credits: 16,
            },
        },
    }
}

fn release(ms: u64, req: u64) -> LeaseEvent {
    LeaseEvent {
        at: SimTime::from_millis(ms),
        kind: LeaseEventKind::Release { req },
    }
}

#[test]
fn duplicate_live_request_ids_change_nothing_in_either_scheduler() {
    use TenantClass::{Guaranteed, Spot, Standard};
    let events = vec![
        // Fill the board's 10k, 15k, 20k and 30k regions; only the lease
        // in the smallest may be evicted.
        request(0, 0, Spot, 9_000),
        request(1, 4, Guaranteed, 5_000),
        request(2, 1, Guaranteed, 18_000),
        request(3, 3, Guaranteed, 25_000),
        // Queued with no eviction to wait for: nothing evictable is large
        // enough.
        request(4, 2, Standard, 18_000),
        // Duplicate while queued. Were it accepted, this smaller namesake
        // would evict the spot lease "for request 2", the freed 10k
        // region would go to the earlier, 18k entry of that id, and the
        // 1 s defrag pass — finding no region that lease fits — would move
        // the 5k lease in on top of it.
        request(5, 2, Standard, 8_000),
        // Duplicates while leased, one larger than any region.
        request(200, 0, Spot, 5_000),
        request(300, 1, Guaranteed, 50_000),
        // After the first defrag boundary the 10k region frees, so the
        // 2 s boundary has the 5k lease to move into it; then the 20k
        // region frees and seats request 2.
        release(1_200, 0),
        release(2_200, 1),
        // A done id may be reused.
        request(2_500, 0, Spot, 4_000),
    ];
    let spec = ElasticSpec {
        seed: 0,
        trace: ElasticTraceConfig {
            boards: 1,
            horizon: SimDuration::from_secs(4),
            ..ElasticTraceConfig::default()
        },
        sched: ElasticConfig {
            eviction_window: SimDuration::from_millis(100),
            defrag_period: SimDuration::from_secs(1),
            spot_reserve_permille: 0,
        },
        region_alms: vec![10_000, 15_000, 20_000, 30_000],
        events,
        plant_defrag_bug: false,
    };
    let outcome = spec.run();
    // Every check holds, the harness's own queue mirror included: a
    // refused duplicate makes no decision and never waits. Counted as
    // waiting, the refused 8k namesake of request 2 would see the spot
    // lease in the 10k region as a victim it failed to evict
    // (`preempt.inversion`), and the region idle once that lease ends
    // (`queue.fit`).
    assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
    // Four grants, the queueing of request 2, two releases, the defrag
    // move, and the grants of request 2 and the reused id: the three
    // refused duplicates add no decision.
    assert_eq!(outcome.decisions, 10);
}
