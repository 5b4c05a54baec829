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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
///
/// Events come out in final order as they are drawn, ties by the order
/// they were drawn in: each arrival, then its release; board crashes
/// after all of them. A release waits in a heap until the first arrival
/// after it, and a crash in its own sorted list until the first arrival
/// or release after it, so the generator holds the trace and the leases
/// still open, never the trace twice.
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

    let mut events = Vec::new();
    let mut crashes = board_crashes(cfg).into_iter().peekable();
    // Emits an arrival or release at `at`, after every crash strictly
    // before it: crashes were drawn last, so they lose ties.
    let mut emit = |at: SimTime, kind: LeaseEventKind| {
        while let Some(crash) = crashes.next_if(|c| c.at < at) {
            events.push(crash);
        }
        events.push(LeaseEvent { at, kind });
    };
    let arrivals_end = SimTime::from_nanos(cfg.horizon.as_nanos() * 9 / 10);
    // Releases not yet due, by `(at, req)`: requests are numbered as
    // they are drawn, so `req` breaks ties in draw order.
    let mut releases: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
    let mut t = SimTime::ZERO;
    let mut req = 0u64;
    loop {
        t += arrive_rng.exp_duration(mean_gap);
        if t >= arrivals_end {
            break;
        }
        // Every pending release was drawn before this arrival, so one at
        // `t` goes first.
        while let Some(&Reverse((at, req))) = releases.peek() {
            if at > t {
                break;
            }
            releases.pop();
            emit(at, LeaseEventKind::Release { req });
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
        emit(
            t,
            LeaseEventKind::Request {
                req,
                tenant: TenantId(req as u32 % cfg.tenants.max(1)),
                class,
                alms,
                preemptible: class != TenantClass::Standard || class_rng.chance(0.5),
                caps,
            },
        );
        let release = t + hold_rng.exp_duration(cfg.mean_hold);
        if release < SimTime::from_nanos(cfg.horizon.as_nanos()) {
            releases.push(Reverse((release, req)));
        }
        req += 1;
    }
    while let Some(Reverse((at, req))) = releases.pop() {
        emit(at, LeaseEventKind::Release { req });
    }
    events.extend(crashes);
    events.shrink_to_fit();
    events
}

/// Board crashes and recoveries of the trace's chaos plan, sorted by time
/// (stable, so ties stay in the order they were drawn): any fault that
/// takes a board off the fabric loses its leases, and the board returns
/// with all regions free. Empty unless `fault_rate` is positive.
fn board_crashes(cfg: &ElasticTraceConfig) -> Vec<LeaseEvent> {
    let mut crashes = Vec::new();
    if cfg.fault_rate > 0.0 {
        let targets = ChaosTargets {
            accelerators: (0..cfg.boards).map(board_addr).collect(),
            clients: Vec::new(),
            racks: Vec::new(),
        };
        let fc = FaultConfig::with_rate(cfg.horizon, cfg.fault_rate);
        for fe in FaultPlan::generate(cfg.seed, &targets, &fc).events {
            let (board, down) = match fe.kind {
                FaultKind::LinkFlap { node, down } => (node, down),
                FaultKind::FpgaHang { node, duration } => (node, duration),
                FaultKind::BadImage { node } => (node, SimDuration::from_secs(2)),
                _ => continue,
            };
            crashes.push(LeaseEvent {
                at: fe.at,
                kind: LeaseEventKind::BoardDown { board },
            });
            crashes.push(LeaseEvent {
                at: fe.at + down,
                kind: LeaseEventKind::BoardUp { board },
            });
        }
    }
    crashes.sort_by_key(|e| e.at);
    crashes
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
///
/// # Panics
///
/// When `region_alms` holds more than 256 regions (see
/// [`ElasticScheduler::add_board`]); [`board_addr`] gives every board its
/// own address.
pub fn run_trace(
    boards: u16,
    region_alms: &[u32],
    sched_cfg: ElasticConfig,
    trace: &[LeaseEvent],
    horizon: SimDuration,
) -> (ElasticScheduler, ElasticRunReport) {
    let mut s = ElasticScheduler::new(sched_cfg);
    for i in 0..boards {
        s.add_board(board_addr(i), region_alms)
            .expect("board_addr is injective; a carve holds at most 256 regions");
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
    use dcsim::{fnv1a, FNV1A_OFFSET};
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

    /// Folds every field of every event, in trace order, into the FNV-1a
    /// hash `hash`.
    fn trace_digest(hash: u64, trace: &[LeaseEvent]) -> u64 {
        trace.iter().fold(hash, |h, ev| {
            let h = fnv1a(h, &ev.at.as_nanos().to_le_bytes());
            match ev.kind {
                LeaseEventKind::Request {
                    req,
                    tenant,
                    class,
                    alms,
                    preemptible,
                    caps,
                } => {
                    let h = fnv1a(fnv1a(h, b"Q"), &req.to_le_bytes());
                    let h = fnv1a(h, &tenant.0.to_le_bytes());
                    let h = fnv1a(h, &[class.rank(), u8::from(preemptible)]);
                    let h = fnv1a(h, &alms.to_le_bytes());
                    let h = fnv1a(h, &caps.er_mbps.to_le_bytes());
                    fnv1a(h, &caps.ltl_credits.to_le_bytes())
                }
                LeaseEventKind::Release { req } => fnv1a(fnv1a(h, b"R"), &req.to_le_bytes()),
                LeaseEventKind::BoardDown { board } => {
                    fnv1a(fnv1a(h, b"D"), &board.as_u32().to_le_bytes())
                }
                LeaseEventKind::BoardUp { board } => {
                    fnv1a(fnv1a(h, b"U"), &board.as_u32().to_le_bytes())
                }
            }
        })
    }

    // Whole traces — arrivals, releases and board crashes, and the order
    // of their ties — of the generator that collected `(at, seq)` tuples
    // and stable-sorted them, over the default 60 s: one digest per seed
    // (1-3) and fault rate (0, 1, 2, 5) of its 6-, 24- and 96-board
    // traces in turn.
    #[test]
    fn generated_traces_are_pinned() {
        const GOLDEN: [u64; 12] = [
            // seed 1, fault rate 0, 1, 2, 5
            0xf23c_443a_2d5a_1f08,
            0x55d7_7d58_4095_7102,
            0x8a6c_0e10_2988_8b53,
            0x4ab7_6eaf_9db2_01ab,
            // seed 2, fault rate 0, 1, 2, 5
            0x4b7c_d764_9357_0550,
            0x4baf_64ac_e5d0_8227,
            0x4603_8968_26b9_0d45,
            0x1f10_a321_4fb7_2068,
            // seed 3, fault rate 0, 1, 2, 5
            0xd920_f112_6dbe_f049,
            0x4d43_7e18_541d_8db4,
            0x0736_e2bb_4b15_ae35,
            0xd0c2_9e26_bdc4_c952,
        ];
        let mut actual = [0u64; 12];
        for (i, digest) in actual.iter_mut().enumerate() {
            *digest = [6, 24, 96].into_iter().fold(FNV1A_OFFSET, |h, boards| {
                let cfg = ElasticTraceConfig {
                    seed: 1 + i as u64 / 4,
                    boards,
                    fault_rate: [0.0, 1.0, 2.0, 5.0][i % 4],
                    ..ElasticTraceConfig::default()
                };
                trace_digest(h, &generate_trace(&cfg))
            });
        }
        assert_eq!(actual, GOLDEN, "{actual:#018x?}");
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
