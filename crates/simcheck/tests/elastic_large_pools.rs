//! Decision-stream identity of the indexed elastic scheduler outside the
//! corner the seed-driven oracle explores.
//!
//! [`simcheck::elastic::ElasticSpec::generate`] only ever draws 3-8
//! boards under one TOR, the standard 25/25/50 carve, and registers
//! boards in address order. The scheduler's indexes are keyed by board
//! *registration index*; an index keyed by `NodeAddr` order would pass
//! every one of those cases and still be wrong. These pools are built by
//! hand to tell the two apart: several TORs, carves with many distinct
//! region sizes, boards registered in reverse address order, crashes and
//! the spot reserve on — stepped in lockstep with the flat-array
//! [`RefScheduler`].

use catapult::elastic::{board_addr, generate_trace, ElasticTraceConfig, MixWeights};
use dcnet::NodeAddr;
use dcsim::{SimDuration, SimTime};
use haas::{ElasticConfig, ElasticScheduler, LeaseEvent, LeaseEventKind, RegionLease};
use simcheck::haas_ref::RefScheduler;

/// Steps both schedulers through `trace`, comparing the decisions of
/// every event, placement and lease tables every `snapshot_every` events,
/// and everything once more after settling to `horizon`; then the
/// decision counts and fingerprints of the whole runs. Returns both: the
/// reference keeps the whole decision log, which the steps showed equal
/// to the real scheduler's.
fn lockstep(
    pool: &[(NodeAddr, Vec<u32>)],
    cfg: ElasticConfig,
    trace: &[LeaseEvent],
    horizon: SimDuration,
    snapshot_every: usize,
) -> (ElasticScheduler, RefScheduler) {
    let mut real = ElasticScheduler::new(cfg);
    let mut reference = RefScheduler::new(cfg);
    for (addr, carve) in pool {
        real.add_board(*addr, carve).unwrap();
        reference.add_board(*addr, carve);
    }
    let snapshots_agree = |real: &ElasticScheduler, reference: &RefScheduler, at: &str| {
        assert_eq!(real.placement(), reference.placement(), "placement {at}");
        let leases: Vec<RegionLease> = real.leases().cloned().collect();
        assert_eq!(leases, reference.leases(), "lease table {at}");
    };
    for (i, ev) in trace.iter().enumerate() {
        let expected = reference.apply(ev);
        assert_eq!(real.apply(ev), expected, "event {i}: {ev:?}");
        if i % snapshot_every == 0 {
            snapshots_agree(&real, &reference, &format!("after event {i}"));
        }
    }
    let end = SimTime::from_nanos(horizon.as_nanos());
    let settled = reference.decisions().len();
    real.advance_to(end);
    reference.advance_to(end);
    assert_eq!(
        real.last_decisions(),
        &reference.decisions()[settled..],
        "settling"
    );
    assert_eq!(real.decision_count(), reference.decisions().len() as u64);
    assert_eq!(real.fingerprint(), reference.fingerprint());
    snapshots_agree(&real, &reference, "after settling");
    assert_eq!(real.indexes_match_rescan(), Ok(()));
    (real, reference)
}

/// Boards `0..boards` in **reverse** address order, board `i` carved as
/// `carves[i % carves.len()]`.
fn reversed_pool(boards: u16, carves: &[&[u32]]) -> Vec<(NodeAddr, Vec<u32>)> {
    (0..boards)
        .rev()
        .map(|i| (board_addr(i), carves[i as usize % carves.len()].to_vec()))
        .collect()
}

#[test]
fn mixed_carves_in_reverse_registration_order_with_crashes_and_spot_reserve() {
    // Two TORs, three carves, nine distinct region sizes; every carve
    // sums to the Figure-5 role area the trace generator sizes load by.
    let carves: [&[u32]; 3] = [
        &[19_002, 19_003, 38_005],
        &[9_000, 14_000, 24_000, 29_010],
        &[12_000, 26_005, 38_005],
    ];
    let cfg = ElasticTraceConfig {
        seed: 7,
        boards: 48,
        horizon: SimDuration::from_secs(20),
        load: 1.3,
        mix: MixWeights::PRESETS[1].1,
        mean_hold: SimDuration::from_secs(2),
        tenants: 32,
        fault_rate: 2.0,
    };
    let trace = generate_trace(&cfg);
    assert!(trace
        .iter()
        .any(|e| matches!(e.kind, LeaseEventKind::BoardDown { .. })));
    let (real, _) = lockstep(
        &reversed_pool(cfg.boards, &carves),
        ElasticConfig {
            eviction_window: SimDuration::from_millis(300),
            defrag_period: SimDuration::from_secs(2),
            spot_reserve_permille: 150,
        },
        &trace,
        cfg.horizon,
        1,
    );
    let (grants, preemptions, reclamations, migrations, _, lost) = real.counters();
    assert!(
        grants > 500 && preemptions > 0 && reclamations > 0 && migrations > 0 && lost > 0,
        "every rule fired: {:?}",
        real.counters()
    );
}

#[test]
fn four_size_carve_over_four_tors_in_reverse_registration_order() {
    let carve: &[u32] = &[9_500, 19_002, 19_002, 28_506];
    let cfg = ElasticTraceConfig {
        seed: 11,
        boards: 96,
        horizon: SimDuration::from_secs(10),
        load: 1.2,
        mean_hold: SimDuration::from_secs(2),
        tenants: 64,
        fault_rate: 1.0,
        ..ElasticTraceConfig::default()
    };
    let trace = generate_trace(&cfg);
    let (real, _) = lockstep(
        &reversed_pool(cfg.boards, &[carve]),
        ElasticConfig {
            defrag_period: SimDuration::from_secs(3),
            spot_reserve_permille: 100,
            ..ElasticConfig::default()
        },
        &trace,
        cfg.horizon,
        16,
    );
    let (grants, preemptions, _, migrations, rejects, _) = real.counters();
    // Requests above the 28,506-ALM top region are typed rejects.
    assert!(
        grants > 500 && preemptions > 0 && migrations > 0 && rejects > 0,
        "{:?}",
        real.counters()
    );
}

/// The tie-break the reverse order is there to expose: equal regions on
/// two boards go to the board registered first, not the lower address.
#[test]
fn equal_regions_tie_break_on_registration_order_not_address() {
    let pool = reversed_pool(2, &[&[20_000]]);
    let trace = generate_trace(&ElasticTraceConfig {
        boards: 2,
        horizon: SimDuration::from_secs(5),
        load: 0.5,
        ..ElasticTraceConfig::default()
    });
    let (_, reference) = lockstep(
        &pool,
        ElasticConfig::default(),
        &trace,
        SimDuration::from_secs(5),
        1,
    );
    let first = reference
        .decisions()
        .iter()
        .find_map(|d| match d {
            haas::Decision::Grant { at, .. } => Some(at.board),
            _ => None,
        })
        .expect("the trace grants something");
    assert_eq!(first, board_addr(1), "first registered, higher address");
}
