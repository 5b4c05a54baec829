//! Management-plane soak: hardware failures drawn from the Section II-B
//! rates flow through the whole-board pool and Service Managers, which
//! must keep every service at full strength as long as spares remain —
//! "failing nodes are removed from the pool with replacements quickly
//! added."

use catapult::elastic::{generate_trace, run_trace, standard_region_alms, ElasticTraceConfig};
use dcnet::NodeAddr;
use dcsim::{SimDuration, SimRng, SimTime};
use haas::{
    whole_board_pool, Decision, ElasticConfig, ElasticScheduler, ServiceManager, TenantClass,
};
use shell::tenant::TenantId;

/// A bed of `n` machines registered with the pool.
fn bed(n: u16) -> ElasticScheduler {
    whole_board_pool((0..n).map(|i| NodeAddr::new(0, i / 24, i % 24)))
}

/// Takes `addr` down at `now`; the lease it held, if any.
fn fail(pool: &mut ElasticScheduler, now: SimTime, addr: NodeAddr) -> Option<u64> {
    pool.board_down(now, addr).unwrap();
    match pool.last_decisions() {
        [Decision::BoardDown { lost, .. }] => lost.first().copied(),
        _ => None,
    }
}

#[test]
fn services_ride_through_a_month_of_failures() {
    // 960 machines, two services holding most of the pool, failures
    // injected at 20x the paper's hard-failure rate so the month actually
    // exercises the replacement path.
    let mut pool = bed(960);
    let mut ranking = ServiceManager::new("ranking", TenantId(0));
    let mut dnn = ServiceManager::new("dnn", TenantId(1));
    ranking.grow(&mut pool, SimTime::ZERO, 400).unwrap();
    dnn.grow(&mut pool, SimTime::ZERO, 400).unwrap();

    let mut rng = SimRng::seed_from(99);
    let daily_failure_rate = 20.0 * 2.0 / 5_760.0 / 30.0; // per machine-day
    let mut failures = 0;
    let mut replacements = 0;
    for day in 0..30 {
        let now = SimTime::from_secs(day * 86_400);
        // Draw today's failures over all machines.
        for tor in 0..40u16 {
            for host in 0..24u16 {
                if rng.chance(daily_failure_rate) {
                    let addr = NodeAddr::new(0, tor, host);
                    if let Some(lease) = fail(&mut pool, now, addr) {
                        failures += 1;
                        // Whichever SM held it requests a replacement.
                        for sm in [&mut ranking, &mut dnn] {
                            match sm.handle_failure(&mut pool, now, lease) {
                                Ok(Some(_)) => {
                                    replacements += 1;
                                    break;
                                }
                                Ok(None) => continue, // not this service's lease
                                Err(e) => panic!("pool exhausted: {e}"),
                            }
                        }
                    } else {
                        // Unallocated spare: swap at leisure.
                        pool.board_up(now, addr).unwrap();
                    }
                }
            }
        }
    }

    assert!(failures >= 2, "want a meaningful soak, got {failures}");
    assert_eq!(replacements, failures, "every disruption was healed");
    assert_eq!(ranking.endpoints().len(), 400, "ranking at full strength");
    assert_eq!(dnn.endpoints().len(), 400, "dnn at full strength");
    assert_eq!(ranking.replacements() + dnn.replacements(), replacements);
    // No failed machine is still serving.
    for addr in ranking.endpoints().into_iter().chain(dnn.endpoints()) {
        assert!(
            matches!(pool.board(addr), Some((true, Some(_)))),
            "{addr} serving while not leased"
        );
    }
}

#[test]
fn exhausted_pool_degrades_instead_of_panicking() {
    let mut pool = bed(24);
    let mut sm = ServiceManager::new("greedy", TenantId(0));
    let now = SimTime::ZERO;
    sm.grow(&mut pool, now, 24).unwrap();
    // Fail half the bed with no spares.
    let mut degraded = 0;
    for host in 0..12u16 {
        let addr = NodeAddr::new(0, 0, host);
        let lease = fail(&mut pool, now, addr).expect("all leased");
        if sm.handle_failure(&mut pool, now, lease).is_err() {
            degraded += 1;
        }
    }
    assert_eq!(degraded, 12);
    assert_eq!(sm.endpoints().len(), 12, "half strength, still serving");
    // Repairs restore grow-ability.
    for host in 0..12u16 {
        pool.board_up(now, NodeAddr::new(0, 0, host)).unwrap();
    }
    sm.grow(&mut pool, now, 12).unwrap();
    assert_eq!(sm.endpoints().len(), 24);
}

#[test]
fn multi_tenant_mix_soaks_ten_minutes_deterministically() {
    // Guaranteed + standard + spot tenants contend for the PR-region pool
    // for ten simulated minutes under moderate oversubscription, with
    // chaos board crashes mixed in. The scheduler must serve every class,
    // exercise preemption and spot reclamation, and produce the exact
    // same decision stream when the seeded trace is run twice.
    let cfg = ElasticTraceConfig {
        seed: 7,
        boards: 6,
        horizon: SimDuration::from_secs(600),
        load: 1.3,
        fault_rate: 1.0,
        ..ElasticTraceConfig::default()
    };
    let sched = ElasticConfig {
        spot_reserve_permille: 150,
        ..ElasticConfig::default()
    };
    let regions = standard_region_alms();
    let trace = generate_trace(&cfg);
    assert!(
        trace.len() > 1_000,
        "ten minutes of load, got {} events",
        trace.len()
    );

    let run = || run_trace(cfg.boards, &regions, sched, &trace, cfg.horizon);
    let (sched_a, report_a) = run();
    let (_, report_b) = run();

    // Same seed, same trace => byte-for-byte the same decisions.
    assert_eq!(report_a, report_b, "soak run is not deterministic");
    assert_eq!(report_a.fingerprint, report_b.fingerprint);

    // Every class got served, and the contention machinery actually ran.
    for (i, class) in TenantClass::ALL.iter().enumerate() {
        assert!(
            report_a.p99_wait_ns[i].is_some(),
            "{class:?} saw no grants over the soak"
        );
        assert!(
            sched_a.wait_histogram(*class).count() > 0,
            "{class:?} wait histogram is empty"
        );
    }
    assert!(report_a.grants > 500, "grants: {}", report_a.grants);
    assert!(report_a.preemptions > 0, "no preemption over ten minutes");
    assert!(
        report_a.reclamations > 0,
        "no spot reclamation over ten minutes"
    );
    assert!(report_a.lost_leases > 0, "chaos crashes never landed");
    assert!(
        report_a.utilization_permille > 400,
        "pool underused: {}permille",
        report_a.utilization_permille
    );
    // The queue drains: nothing waits forever once the trace ends.
    assert!(
        report_a.queued_at_end < 20,
        "queue backlog at end: {}",
        report_a.queued_at_end
    );
}
