//! Figure 10: LTL round-trip latency by tier vs the 6x8 torus.
//!
//! Paper: L0 avg 2.88 µs (p99.9 2.9), L1 avg 7.72 µs (p99.9 8.24),
//! L2 avg 18.71 µs (p99.9 22.38, never above 23.5); torus 1 µs 1-hop,
//! 7 µs worst case, capped at 48 FPGAs.
//!
//! Pass `--trace` to also record each tier's flight-recorder timeline and
//! write it as Chrome trace-event JSON (`results/fig10_trace_<tier>.json`,
//! loadable in Perfetto / `chrome://tracing`).
//!
//! Pass `--full-scale` for the fleet-scale run instead: a 260-pod lazy
//! hybrid fabric (249,600 reachable hosts) where only a small packet
//! island is simulated at packet fidelity and the rest of the fleet
//! presses on the spine through the flow-level aggregate model. Combine
//! with `--quick` for a reduced smoke-scale fleet, and with
//! `--rss-limit-mb N` to fail the run if the allocator high-water mark
//! exceeds N MiB (the lazy-topology memory gate).

use catapult::prelude::*;
use catapult::telemetry::json::validate_chrome_trace;
use experiments::fig10;
use serde::Serialize;
use std::time::Instant;

#[global_allocator]
static ALLOC: bench::mem::TrackingAlloc = bench::mem::TrackingAlloc;

/// Ring-buffer capacity for `--trace` runs: enough for every probe event
/// at quick scale without letting full scale allocate without bound.
const TRACE_EVENTS: usize = 262_144;

/// Wall-clock row for `results/BENCH_fleet.json`. Timing fields live here
/// and not in `fig10_fleet.json`, which must stay byte-identical across
/// same-seed runs for the CI fingerprint diff.
#[derive(Debug, Serialize)]
struct FleetBenchRow {
    commit: String,
    hosts_reachable: usize,
    materialized_pods: usize,
    switch_count: usize,
    events: u64,
    events_per_sec: f64,
    wall_secs: f64,
    peak_rss_mb: f64,
}

fn run_fleet_mode() {
    bench::header(
        "Figure 10 (fleet)",
        "LTL latency inside a packet island of a quarter-million-host fabric",
    );
    let params = if bench::quick_mode() {
        let mut workload = experiments::fig10::FleetParams::default().workload;
        workload.users = 100_000;
        fig10::FleetParams {
            pods: 12,
            pairs_per_tier: 2,
            probes_per_pair: 100,
            workload,
            ..fig10::FleetParams::default()
        }
    } else {
        fig10::FleetParams::default()
    };
    println!(
        "fabric: {} pods ({} hosts), island {} pods at packet fidelity, {} users",
        params.pods,
        calib::paper_shape(params.pods).total_hosts(),
        params.island_pods,
        params.workload.users,
    );
    let wall = Instant::now();
    let (result, queue) = fig10::run_fleet(&params);
    let wall = wall.elapsed();
    bench::report_engine_cost(result.events, "build + run", wall, queue);
    let wall_secs = wall.as_secs_f64();
    let peak_rss_mb = bench::mem::peak_bytes() as f64 / (1024.0 * 1024.0);
    println!("{}", result.table());
    println!(
        "wall {:.1}s | {:.0} events/s | peak heap {:.0} MiB",
        wall_secs,
        result.events as f64 / wall_secs,
        peak_rss_mb
    );
    bench::write_json("fig10_fleet", &result);
    bench::write_json(
        "BENCH_fleet",
        &FleetBenchRow {
            commit: bench::current_commit(),
            hosts_reachable: result.hosts_reachable,
            materialized_pods: result.materialized_pods,
            switch_count: result.switch_count,
            events: result.events,
            events_per_sec: result.events as f64 / wall_secs,
            wall_secs,
            peak_rss_mb,
        },
    );
    if let Some(limit) = bench::arg_value("--rss-limit-mb") {
        let limit: f64 = limit.parse().expect("--rss-limit-mb takes a number");
        if peak_rss_mb > limit {
            eprintln!("FAIL: peak heap {peak_rss_mb:.0} MiB exceeds --rss-limit-mb {limit}");
            std::process::exit(1);
        }
        println!("memory gate: peak heap {peak_rss_mb:.0} MiB <= {limit} MiB");
    }
}

fn main() {
    if std::env::args().any(|a| a == "--full-scale") {
        run_fleet_mode();
        return;
    }
    bench::header("Figure 10", "LTL round-trip latency vs reachable hosts");
    let params = if bench::quick_mode() {
        fig10::Fig10Params {
            pods: 4,
            pairs_per_tier: 2,
            probes_per_pair: 100,
            ..fig10::Fig10Params::default()
        }
    } else {
        fig10::Fig10Params::default()
    };
    let tracing = std::env::args().any(|a| a == "--trace");
    println!(
        "fabric: {} pods ({} hosts), {} pairs/tier x {} probes",
        params.pods,
        calib::paper_shape(params.pods).total_hosts(),
        params.pairs_per_tier,
        params.probes_per_pair
    );
    let (result, traces) = fig10::run_traced(&params, if tracing { TRACE_EVENTS } else { 0 });
    println!("{}", result.table());
    println!("paper:   L0 2.88/2.90  L1 7.72/8.24  L2 18.71/22.38 (max 23.5) us; torus 1-7us @48");
    bench::write_json("fig10_ltl_latency", &result);
    for (tier, trace) in ["l0", "l1", "l2"].iter().zip(&traces) {
        validate_chrome_trace(trace)
            .expect("flight-recorder export must be valid Chrome trace JSON");
        bench::write_raw(&format!("fig10_trace_{tier}.json"), trace);
    }

    // The paper's idle-rate numbers were taken on a shared network; show
    // the same probes with 20 Gb/s of best-effort cross-traffic through
    // every probe TOR (strict priority keeps LTL nearly unaffected).
    println!("\nwith 20 Gb/s best-effort background through each probe TOR:");
    let loaded = fig10::run(&fig10::Fig10Params {
        background_gbps: 20.0,
        ..params
    });
    println!("{}", loaded.table());
    bench::write_json("fig10_ltl_latency_loaded", &loaded);
}
