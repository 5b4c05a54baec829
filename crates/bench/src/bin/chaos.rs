//! Chaos lane: a ranking + DNN-pool workload under deterministic fault
//! injection, reporting how the acceleration plane detects and recovers.
//!
//! The same `--seed` always produces a byte-identical
//! `results/chaos_report.json`, so CI runs this binary twice and diffs
//! the reports as a determinism gate.
//!
//! ```text
//! chaos [--quick] [--seed N]
//!       [--preset random|rack-isolation|golden-image|lossy-link]
//!       [--fault-rate X]
//! ```

use std::time::Instant;

use bench::arg_value;
use catapult::prelude::*;

fn main() {
    bench::header(
        "chaos",
        "fault injection and recovery on the acceleration plane",
    );

    let seed: u64 = arg_value("--seed")
        .map(|v| v.parse().expect("--seed takes an integer"))
        .unwrap_or(42);
    let preset = arg_value("--preset")
        .map(|v| {
            Preset::parse(&v).expect("--preset takes random|rack-isolation|golden-image|lossy-link")
        })
        .unwrap_or(Preset::Random);
    let mut cfg = if bench::quick_mode() {
        ChaosConfig::quick(seed, preset)
    } else {
        ChaosConfig::full(seed, preset)
    };
    if let Some(rate) = arg_value("--fault-rate") {
        cfg = cfg.with_fault_rate(rate.parse().expect("--fault-rate takes a float"));
    }

    let mut rig = ChaosRig::build(cfg);
    println!(
        "seed {seed}  preset {}  faults {}",
        preset.name(),
        rig.plan().events.len()
    );
    let started = Instant::now();
    let events = rig.cluster_mut().run_to_idle();
    let queue = rig.cluster_mut().engine().queue_stats();
    bench::report_engine_cost(events, "run", started.elapsed(), queue);
    // Nothing is left to run: this assembles the report.
    let report = rig.run();

    println!(
        "requests: {} issued, {} completed, {} lost, {} degraded, {} stranded",
        report.requests.issued,
        report.requests.completed,
        report.requests.lost,
        report.requests.degraded,
        report.requests.stranded,
    );
    println!(
        "served:   {} by primaries, {} by spares",
        report.requests.served_by_primaries, report.requests.served_by_spares,
    );
    println!(
        "recovery: {} failovers, {} replacements, {} power cycles, {} repairs",
        report.recovery.failovers,
        report.recovery.replacements,
        report.recovery.power_cycles,
        report.recovery.repairs,
    );
    if let (Some(p50), Some(p99), Some(p999)) = (
        report.latency.p50_ns,
        report.latency.p99_ns,
        report.latency.p999_ns,
    ) {
        println!(
            "latency:  p50 {:.1} us  p99 {:.1} us  p99.9 {:.1} us",
            p50 as f64 / 1_000.0,
            p99 as f64 / 1_000.0,
            p999 as f64 / 1_000.0,
        );
    }
    for f in &report.timeline {
        let fmt = |s: &catapult::chaos::LatencySummary| match s.p99_ns {
            Some(p99) => format!("{} done, p99 {:.1} us", s.count, p99 as f64 / 1_000.0),
            None => format!("{} done", s.count),
        };
        println!(
            "  t={:>7} us  {:<44} during[{}] after[{}]",
            f.at_us,
            f.fault,
            fmt(&f.during),
            fmt(&f.after),
        );
    }

    bench::write_json("chaos_report", &report);
}
