//! Elastic multi-tenant HaaS oversubscription sweep (the Figure-12
//! companion for the scheduler): drives the same seeded tenant-mix
//! traces through two placement policies — PR-region elastic scheduling
//! (the 25/25/50 carve of the Figure-5 role area) and the paper's
//! whole-board allocation — across tenant mixes and offered loads, and
//! reports time-averaged pool utilization, per-class p99 grant waits and
//! preemption/reclaim counts.
//!
//! ```text
//! catapult haas_elastic [--quick] [--check-win] [--full-scale]
//! ```
//!
//! `results/haas_elastic.json` is byte-identical across same-seed runs
//! (no wall-clock fields); `--full-scale` prints host ns per trace event
//! on stdout.
//! `--check-win` gates CI: at least one mix×load point must show elastic
//! beating whole-board on utilization with equal-or-better p99 wait for
//! every class the whole-board run served.
//!
//! `--full-scale` runs the same sweep on a 5,760-board pool (the paper's
//! production bed) into `results/haas_elastic_full.json`, preceded by a
//! scaling ladder: the repository benchmark's `haas_elastic` trace shape
//! replayed at 24 to 5,760 boards, with events, host ns per event and the
//! decision fingerprint per rung. `--full-scale --quick` keeps the ladder
//! and trims the sweep to one load over a third of the horizon.

use std::time::Instant;

use crate::{output, Args};
use catapult::elastic::{
    generate_trace, run_trace, standard_region_alms, ElasticTraceConfig, MixWeights,
};
use catapult::sweep::parallel_map;
use dcsim::SimDuration;
use haas::{whole_board_alms, ElasticConfig};
use serde::Serialize;

/// One policy run at one sweep point.
#[derive(Debug, Clone, Serialize)]
struct Row {
    mix: String,
    load: f64,
    policy: String,
    utilization_permille: u64,
    /// p99 grant wait per class in microseconds; -1 when the class saw
    /// no grant.
    p99_wait_us_guaranteed: i64,
    p99_wait_us_standard: i64,
    p99_wait_us_spot: i64,
    grants: u64,
    preemptions: u64,
    reclamations: u64,
    migrations: u64,
    rejects: u64,
    lost_leases: u64,
    queued_at_end: u64,
    fingerprint: u64,
}

/// The deterministic sweep dataset.
#[derive(Debug, Clone, Serialize)]
struct Sweep {
    seed: u64,
    boards: u16,
    horizon_secs: u64,
    region_alms_elastic: Vec<u32>,
    region_alms_whole: Vec<u32>,
    rows: Vec<Row>,
}

/// One rung of the `--full-scale` scaling ladder.
#[derive(Debug, Clone, Serialize)]
struct Rung {
    boards: u16,
    horizon_secs: u64,
    events: u64,
    decisions: u64,
    fingerprint: u64,
}

/// The deterministic `--full-scale` dataset.
#[derive(Debug, Clone, Serialize)]
struct FullScale {
    ladder: Vec<Rung>,
    sweep: Sweep,
}

fn us(p99_ns: Option<u64>) -> i64 {
    p99_ns.map(|ns| (ns / 1_000) as i64).unwrap_or(-1)
}

/// Runs the mix × load × policy points over a `boards`-board pool on
/// `catapult::sweep::parallel_map` (`CATAPULT_THREADS` workers; rows come
/// back in input order, so the dataset is the same for any worker
/// count). Also returns each row's host ns per trace event, timed on its
/// worker.
fn run_sweep(boards: u16, horizon: SimDuration, loads: &[f64]) -> (Sweep, Vec<f64>) {
    let seed = 42u64;
    let sched = ElasticConfig {
        spot_reserve_permille: 100,
        ..ElasticConfig::default()
    };
    let elastic_regions = standard_region_alms();
    let whole_regions = whole_board_alms();

    let mix_loads: Vec<(&str, MixWeights, f64)> = MixWeights::PRESETS
        .iter()
        .flat_map(|&(name, mix)| loads.iter().map(move |&load| (name, mix, load)))
        .collect();
    let traces = parallel_map(mix_loads.clone(), |(_, mix, load)| {
        generate_trace(&ElasticTraceConfig {
            seed,
            boards,
            horizon,
            load,
            mix,
            ..ElasticTraceConfig::default()
        })
    });
    let points: Vec<_> = mix_loads
        .iter()
        .zip(&traces)
        .flat_map(|(&(mix_name, _, load), trace)| {
            [("elastic", &elastic_regions), ("whole", &whole_regions)]
                .map(|(policy, regions)| (mix_name, load, policy, regions, trace))
        })
        .collect();
    let runs = parallel_map(points, |(mix_name, load, policy, regions, trace)| {
        let timer = Instant::now();
        let (_, report) = run_trace(boards, regions, sched, trace, horizon);
        let ns_per_event = timer.elapsed().as_nanos() as f64 / trace.len().max(1) as f64;
        let row = Row {
            mix: mix_name.to_string(),
            load,
            policy: policy.to_string(),
            utilization_permille: report.utilization_permille,
            p99_wait_us_guaranteed: us(report.p99_wait_ns[0]),
            p99_wait_us_standard: us(report.p99_wait_ns[1]),
            p99_wait_us_spot: us(report.p99_wait_ns[2]),
            grants: report.grants,
            preemptions: report.preemptions,
            reclamations: report.reclamations,
            migrations: report.migrations,
            rejects: report.rejects,
            lost_leases: report.lost_leases,
            queued_at_end: report.queued_at_end,
            fingerprint: report.fingerprint,
        };
        (row, ns_per_event)
    });
    let (rows, row_ns_per_event) = runs.into_iter().unzip();
    let sweep = Sweep {
        seed,
        boards,
        horizon_secs: horizon.as_nanos() / 1_000_000_000,
        region_alms_elastic: elastic_regions,
        region_alms_whole: whole_regions,
        rows,
    };
    (sweep, row_ns_per_event)
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:>17} {:>5} {:>8} {:>7} {:>10} {:>10} {:>10} {:>7} {:>7} {:>7} {:>7}",
        "mix",
        "load",
        "policy",
        "util‰",
        "p99 g(us)",
        "p99 s(us)",
        "p99 sp(us)",
        "grants",
        "preempt",
        "reclaim",
        "queued"
    );
    for r in rows {
        println!(
            "{:>17} {:>5.1} {:>8} {:>7} {:>10} {:>10} {:>10} {:>7} {:>7} {:>7} {:>7}",
            r.mix,
            r.load,
            r.policy,
            r.utilization_permille,
            r.p99_wait_us_guaranteed,
            r.p99_wait_us_standard,
            r.p99_wait_us_spot,
            r.grants,
            r.preemptions,
            r.reclamations,
            r.queued_at_end
        );
    }
}

/// The win condition the CI lane gates on: sweep points where the elastic
/// carve beats whole-board utilization without serving any class a worse
/// p99 wait than whole-board did.
fn winning_points(rows: &[Row]) -> Vec<String> {
    let wins: Vec<String> = rows
        .chunks(2)
        .filter_map(|pair| {
            let [e, w] = pair else { return None };
            let wait_ok = [
                (e.p99_wait_us_guaranteed, w.p99_wait_us_guaranteed),
                (e.p99_wait_us_standard, w.p99_wait_us_standard),
                (e.p99_wait_us_spot, w.p99_wait_us_spot),
            ]
            .iter()
            .all(|&(ep, wp)| wp < 0 || (ep >= 0 && ep <= wp));
            (e.utilization_permille > w.utilization_permille && wait_ok)
                .then(|| format!("{} @ load {:.1}", e.mix, e.load))
        })
        .collect();
    println!(
        "elastic wins (higher utilization, equal-or-better p99 waits): {}",
        if wins.is_empty() {
            "none".to_string()
        } else {
            wins.join(", ")
        }
    );
    wins
}

/// Sanity that the preemption machinery actually exercised (spot-heavy
/// oversubscribed mixes must preempt or reclaim somewhere), then the
/// `--check-win` gate.
fn gates(rows: &[Row], wins: &[String], check_win: bool) {
    let churn: u64 = rows
        .iter()
        .filter(|r| r.policy == "elastic")
        .map(|r| r.preemptions + r.reclamations)
        .sum();
    if churn == 0 {
        eprintln!("FAIL: no preemption or reclamation across the whole sweep");
        std::process::exit(1);
    }
    if check_win {
        if wins.is_empty() {
            eprintln!("FAIL: --check-win found no sweep point where elastic beats whole-board");
            std::process::exit(1);
        }
        println!("--check-win passed ({} winning point(s))", wins.len());
    }
}

/// `(boards, horizon s)` per rung of the scaling ladder; the horizon
/// shrinks as the pool grows so every rung replays 13k-200k events.
const LADDER: [(u16, u64); 5] = [(24, 240), (96, 240), (384, 60), (1_536, 30), (5_760, 15)];

/// Replays the repository benchmark's `haas_elastic` trace shape (seed 1,
/// load 1.2, 64 tenants, no crashes, default mix, hold and
/// `ElasticConfig`) at each rung. Host time per rung is the fastest of
/// five replays, run serially and before the sweep so no replay shares a
/// core with another.
fn scaling_ladder() -> Vec<Rung> {
    let regions = standard_region_alms();
    let mut rungs = Vec::new();
    let mut timings = Vec::new();
    println!(
        "{:>7} {:>9} {:>9} {:>10} {:>10} {:>17}",
        "boards", "horizon s", "events", "decisions", "ns/event", "fingerprint"
    );
    for (boards, horizon_secs) in LADDER {
        let horizon = SimDuration::from_secs(horizon_secs);
        let trace = generate_trace(&ElasticTraceConfig {
            seed: 1,
            boards,
            horizon,
            load: 1.2,
            tenants: 64,
            ..ElasticTraceConfig::default()
        });
        let (best_ns, report) = (0..5)
            .map(|_| {
                let timer = Instant::now();
                let (_, report) =
                    run_trace(boards, &regions, ElasticConfig::default(), &trace, horizon);
                (timer.elapsed().as_nanos(), report)
            })
            .min_by_key(|(ns, _)| *ns)
            .expect("five replays ran");
        let ns_per_event = best_ns as f64 / trace.len().max(1) as f64;
        println!(
            "{:>7} {:>9} {:>9} {:>10} {:>10.0} {:>17}",
            boards,
            horizon_secs,
            trace.len(),
            report.decisions,
            ns_per_event,
            format!("{:016x}", report.fingerprint)
        );
        rungs.push(Rung {
            boards,
            horizon_secs,
            events: trace.len() as u64,
            decisions: report.decisions,
            fingerprint: report.fingerprint,
        });
        timings.push((boards, ns_per_event));
    }
    // Rungs 0 and 2 of `LADDER`: the cost per lease event may grow at
    // most 2x from 24 to 384 boards (the bar Funky's orchestration-at-scale
    // evaluation sets).
    println!(
        "cost per lease event, 384 boards over 24 boards: {:.2}x",
        timings[2].1 / timings[0].1
    );
    rungs
}

pub fn run(args: &Args) {
    output::header(
        "haas-elastic",
        "multi-tenant PR-region scheduling vs whole-board allocation",
    );
    let quick = args.switch("--quick");
    let full_scale = args.switch("--full-scale");
    let horizon = SimDuration::from_secs(if quick { 20 } else { 60 });
    let loads: &[f64] = if quick { &[1.2] } else { &[0.8, 1.2, 1.6] };
    let ladder = if full_scale {
        let ladder = scaling_ladder();
        println!("\n5,760-board pool:");
        ladder
    } else {
        Vec::new()
    };
    let (sweep, row_ns_per_event) = run_sweep(if full_scale { 5_760 } else { 6 }, horizon, loads);
    print_rows(&sweep.rows);
    if full_scale {
        println!(
            "{:>17} {:>5} {:>8} {:>10}",
            "mix", "load", "policy", "ns/event"
        );
        for (r, ns) in sweep.rows.iter().zip(&row_ns_per_event) {
            println!("{:>17} {:>5.1} {:>8} {:>10.0}", r.mix, r.load, r.policy, ns);
        }
    }
    let wins = winning_points(&sweep.rows);
    let sweep = if full_scale {
        let dataset = FullScale { ladder, sweep };
        output::write_json("haas_elastic_full", &dataset);
        dataset.sweep
    } else {
        output::write_json("haas_elastic", &sweep);
        sweep
    };
    gates(&sweep.rows, &wins, args.switch("--check-win"));
}
