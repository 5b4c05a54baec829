//! Tenant-mix traces and the run rig for elastic multi-tenant HaaS.
//!
//! [`haas::ElasticScheduler`] is a pure function of its event trace;
//! this module produces those traces: seeded tenant mixes (arrival
//! processes, request sizes, class weights, hold times) plus board
//! crashes mapped from a chaos [`FaultPlan`], so fleet failures land
//! mid-lease exactly like the fault injection used everywhere else in
//! this repo. [`run_trace`] drives a scheduler over a trace and distils
//! an [`ElasticRunReport`] (utilization, per-class p99 waits,
//! preemption/reclaim counts, decision fingerprint) — the unit the
//! Fig. 12-style oversubscription sweep and the simcheck oracle both
//! build on.

use dcnet::NodeAddr;
use dcsim::{SimDuration, SimRng, SimTime};
use haas::{ElasticConfig, ElasticScheduler, LeaseEvent, LeaseEventKind, TenantClass};
use shell::tenant::{TenantCaps, TenantId};

use crate::chaos::{ChaosTargets, FaultConfig, FaultKind, FaultPlan};

/// Relative class weights of a tenant mix (need not sum to anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixWeights {
    /// Weight of guaranteed-class requests.
    pub guaranteed: u32,
    /// Weight of standard-class requests.
    pub standard: u32,
    /// Weight of spot-class requests.
    pub spot: u32,
}

impl MixWeights {
    /// Named mixes swept by the bench and the CI lane.
    pub const PRESETS: [(&'static str, MixWeights); 3] = [
        (
            "balanced",
            MixWeights {
                guaranteed: 2,
                standard: 5,
                spot: 3,
            },
        ),
        (
            "spot-heavy",
            MixWeights {
                guaranteed: 1,
                standard: 2,
                spot: 7,
            },
        ),
        (
            "guaranteed-heavy",
            MixWeights {
                guaranteed: 5,
                standard: 4,
                spot: 1,
            },
        ),
    ];

    fn draw(&self, rng: &mut SimRng) -> TenantClass {
        let total = (self.guaranteed + self.standard + self.spot).max(1) as usize;
        let roll = rng.index(total) as u32;
        if roll < self.guaranteed {
            TenantClass::Guaranteed
        } else if roll < self.guaranteed + self.standard {
            TenantClass::Standard
        } else {
            TenantClass::Spot
        }
    }
}

/// Everything that determines a generated trace (same config + same seed
/// ⇒ byte-identical trace).
#[derive(Debug, Clone)]
pub struct ElasticTraceConfig {
    /// Seed for every random draw.
    pub seed: u64,
    /// Number of boards in the pool.
    pub boards: u16,
    /// Trace horizon; arrivals stop at 90 % of it so the tail drains.
    pub horizon: SimDuration,
    /// Offered load as a fraction of pool capacity (1.0 = the mean
    /// outstanding demand equals the pool; >1 oversubscribes).
    pub load: f64,
    /// Tenant class mix.
    pub mix: MixWeights,
    /// Mean lease hold time (exponential).
    pub mean_hold: SimDuration,
    /// Distinct tenants cycling through the trace.
    pub tenants: u32,
    /// Chaos fault rate (0 disables board crashes); faults are drawn
    /// with the repo-wide [`FaultPlan`] machinery and mapped to
    /// board-down/board-up events.
    pub fault_rate: f64,
}

impl Default for ElasticTraceConfig {
    fn default() -> Self {
        ElasticTraceConfig {
            seed: 1,
            boards: 6,
            horizon: SimDuration::from_secs(60),
            load: 1.2,
            mix: MixWeights::PRESETS[0].1,
            mean_hold: SimDuration::from_secs(4),
            tenants: 16,
            fault_rate: 0.0,
        }
    }
}

/// Board addresses used by generated pools: host slots under one TOR
/// per 24 boards.
pub fn board_addr(i: u16) -> NodeAddr {
    NodeAddr::new(0, i / 24, i % 24)
}

/// The standard multi-tenant carve of one board, in ALMs (25/25/50 of
/// the Figure-5 role area).
pub fn standard_region_alms() -> Vec<u32> {
    fpga::STANDARD_CARVE_ALMS.to_vec()
}

/// Generates the seeded tenant-mix trace: request arrivals, releases,
/// and chaos board crashes, sorted by time.
pub fn generate_trace(cfg: &ElasticTraceConfig) -> Vec<LeaseEvent> {
    let mut rng = SimRng::seed_from(cfg.seed ^ 0xE1A5_71C0_5C4E_D01E);
    let mut size_rng = rng.fork();
    let mut class_rng = rng.fork();
    let mut hold_rng = rng.fork();
    let mut arrive_rng = rng.fork();

    let regions = standard_region_alms();
    let largest = regions.iter().copied().max().unwrap_or(0);
    let pool: u64 = regions.iter().map(|&a| a as u64).sum::<u64>() * cfg.boards as u64;

    // Mean request size under the 70/30 small/large split below.
    let mean_size = 0.7 * 16_000.0 + 0.3 * (largest as f64 * 0.75);
    // Arrival rate such that arrivals * mean_hold * mean_size covers
    // `load` of the pool.
    let hold_ns = cfg.mean_hold.as_nanos().max(1) as f64;
    let rate_per_ns = cfg.load * pool as f64 / (hold_ns * mean_size);
    let mean_gap = SimDuration::from_nanos((1.0 / rate_per_ns.max(1e-18)) as u64);

    let arrivals_end = SimTime::from_nanos(cfg.horizon.as_nanos() * 9 / 10);
    let mut events: Vec<(SimTime, u64, LeaseEventKind)> = Vec::new();
    let mut t = SimTime::ZERO;
    let mut req = 0u64;
    let mut seq = 0u64;
    loop {
        t += arrive_rng.exp_duration(mean_gap);
        if t >= arrivals_end {
            break;
        }
        // 70 % of requests fit a small region, 30 % need a large one.
        let alms = if size_rng.chance(0.7) {
            8_000 + (size_rng.index(16_001) as u32)
        } else {
            largest / 2 + (size_rng.index((largest / 2 + 1) as usize) as u32)
        };
        let class = cfg.mix.draw(&mut class_rng);
        let caps = TenantCaps {
            er_mbps: 1_000 + alms / 10,
            ltl_credits: 16 + (alms / 2_048),
        };
        events.push((
            t,
            seq,
            LeaseEventKind::Request {
                req,
                tenant: TenantId(req as u32 % cfg.tenants.max(1)),
                class,
                alms,
                preemptible: class != TenantClass::Standard || class_rng.chance(0.5),
                caps,
            },
        ));
        seq += 1;
        let release = t + hold_rng.exp_duration(cfg.mean_hold);
        if release < SimTime::from_nanos(cfg.horizon.as_nanos()) {
            events.push((release, seq, LeaseEventKind::Release { req }));
            seq += 1;
        }
        req += 1;
    }

    // Chaos: crash boards mid-lease via the repo's fault planner.
    if cfg.fault_rate > 0.0 {
        let targets = ChaosTargets {
            accelerators: (0..cfg.boards).map(board_addr).collect(),
            clients: Vec::new(),
            racks: Vec::new(),
        };
        let fc = FaultConfig::with_rate(cfg.horizon, cfg.fault_rate);
        for fe in FaultPlan::generate(cfg.seed, &targets, &fc).events {
            // Any fault that takes the node off the fabric loses its
            // leases; the board returns with all regions free.
            let (board, down) = match fe.kind {
                FaultKind::LinkFlap { node, down } => (node, down),
                FaultKind::FpgaHang { node, duration } => (node, duration),
                FaultKind::BadImage { node } => (node, SimDuration::from_secs(2)),
                _ => continue,
            };
            events.push((fe.at, seq, LeaseEventKind::BoardDown { board }));
            seq += 1;
            events.push((fe.at + down, seq, LeaseEventKind::BoardUp { board }));
            seq += 1;
        }
    }

    events.sort_by_key(|(at, seq, _)| (*at, *seq));
    events
        .into_iter()
        .map(|(at, _, kind)| LeaseEvent { at, kind })
        .collect()
}

/// Summary of one scheduler run over one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticRunReport {
    /// Time-averaged pool utilization, permille.
    pub utilization_permille: u64,
    /// p99 grant wait per class, ns (`None` when the class saw no grant).
    pub p99_wait_ns: [Option<u64>; 3],
    /// Grants issued.
    pub grants: u64,
    /// Preemptions (evictions for a higher class).
    pub preemptions: u64,
    /// Spot reclamations.
    pub reclamations: u64,
    /// Defrag migrations.
    pub migrations: u64,
    /// Oversized rejects.
    pub rejects: u64,
    /// Leases lost to board crashes.
    pub lost_leases: u64,
    /// Requests still queued at trace end.
    pub queued_at_end: u64,
    /// Decision count.
    pub decisions: u64,
    /// Decision-log fingerprint.
    pub fingerprint: u64,
}

/// Builds a scheduler over `boards` boards carved as `region_alms`,
/// applies `trace`, settles trailing evictions/defrag to `horizon`, and
/// reports.
pub fn run_trace(
    boards: u16,
    region_alms: &[u32],
    sched_cfg: ElasticConfig,
    trace: &[LeaseEvent],
    horizon: SimDuration,
) -> (ElasticScheduler, ElasticRunReport) {
    let mut s = ElasticScheduler::new(sched_cfg);
    for i in 0..boards {
        // Addresses are distinct by construction; a duplicate would be a
        // generator bug worth surfacing in the report, not a panic.
        let _ = s.add_board(board_addr(i), region_alms);
    }
    for ev in trace {
        s.apply(ev);
    }
    s.advance_to(SimTime::from_nanos(horizon.as_nanos()));
    let (grants, preemptions, reclamations, migrations, rejects, lost_leases) = s.counters();
    let p99 = |class: TenantClass| s.wait_histogram(class).percentile(99.0);
    let report = ElasticRunReport {
        utilization_permille: s.avg_utilization_permille(),
        p99_wait_ns: [
            p99(TenantClass::Guaranteed),
            p99(TenantClass::Standard),
            p99(TenantClass::Spot),
        ],
        grants,
        preemptions,
        reclamations,
        migrations,
        rejects,
        lost_leases,
        queued_at_end: s.queued_reqs().len() as u64,
        decisions: s.decision_count(),
        fingerprint: s.fingerprint(),
    };
    (s, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haas::whole_board_alms;

    #[test]
    fn trace_generation_is_deterministic() {
        let cfg = ElasticTraceConfig {
            fault_rate: 1.0,
            ..ElasticTraceConfig::default()
        };
        let a = generate_trace(&cfg);
        let b = generate_trace(&cfg);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        // Time-sorted.
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn traces_contain_chaos_board_events_at_rate() {
        let cfg = ElasticTraceConfig {
            fault_rate: 2.0,
            ..ElasticTraceConfig::default()
        };
        let trace = generate_trace(&cfg);
        let downs = trace
            .iter()
            .filter(|e| matches!(e.kind, LeaseEventKind::BoardDown { .. }))
            .count();
        let ups = trace
            .iter()
            .filter(|e| matches!(e.kind, LeaseEventKind::BoardUp { .. }))
            .count();
        assert!(downs > 0, "rate 2.0 should crash at least one board");
        assert_eq!(downs, ups, "every crash has a recovery");
    }

    #[test]
    fn run_reports_are_reproducible_and_busy() {
        let cfg = ElasticTraceConfig::default();
        let trace = generate_trace(&cfg);
        let regions = standard_region_alms();
        let run = || {
            run_trace(
                cfg.boards,
                &regions,
                ElasticConfig::default(),
                &trace,
                cfg.horizon,
            )
            .1
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.grants > 50, "load 1.2 keeps the pool busy: {a:?}");
        assert!(a.utilization_permille > 300, "report: {a:?}");
    }

    /// The repository benchmark's `haas_elastic` trace shape (seed 1, load
    /// 1.2, 64 tenants, no crashes, default mix, hold and `ElasticConfig`)
    /// on `boards` boards over `secs` simulated seconds.
    fn benchmark_shaped_fingerprint(boards: u16, secs: u64) -> u64 {
        let cfg = ElasticTraceConfig {
            seed: 1,
            boards,
            horizon: SimDuration::from_secs(secs),
            load: 1.2,
            tenants: 64,
            ..ElasticTraceConfig::default()
        };
        let trace = generate_trace(&cfg);
        let regions = standard_region_alms();
        let (_, report) = run_trace(
            boards,
            &regions,
            ElasticConfig::default(),
            &trace,
            cfg.horizon,
        );
        report.fingerprint
    }

    // Decision streams of the pool-rescanning scheduler (the commit before
    // `haas::ElasticScheduler` grew indexes), at pool sizes the simcheck
    // oracle's 3-8 boards never reach. 96 x 240 s is the benchmark's own
    // `haas_elastic` fingerprint (`benchmark/baseline/seed1.json`).
    #[test]
    fn decision_streams_are_pinned_at_24_to_384_boards() {
        for (boards, secs, golden) in [
            (24, 240, 0x946a_ab1c_cb07_19a9_u64),
            (96, 240, 0xfe02_d098_7e0b_d976),
            (384, 60, 0x32d0_6663_3986_28cf),
        ] {
            assert_eq!(
                benchmark_shaped_fingerprint(boards, secs),
                golden,
                "{boards} boards x {secs} s"
            );
        }
    }

    #[test]
    #[ignore = "debug builds rescan a 4,608-region pool after each of 104,653 events"]
    fn decision_stream_is_pinned_at_1536_boards() {
        assert_eq!(
            benchmark_shaped_fingerprint(1_536, 30),
            0x231f_d449_ac52_f313
        );
    }

    #[test]
    fn whole_board_carve_is_one_full_role_region() {
        let whole = whole_board_alms();
        let split = standard_region_alms();
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0], split.iter().sum::<u32>());
    }

    #[test]
    fn standard_carve_is_pinned() {
        // The `haas_elastic` and `service_chaos` fingerprints depend on
        // these exact sizes: a changed carve must fail here first.
        assert_eq!(standard_region_alms(), [24_147, 24_147, 48_295]);
        assert_eq!(whole_board_alms(), [96_589]);
    }
}
