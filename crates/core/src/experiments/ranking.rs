//! Figures 6 and 11: ranking latency versus throughput.
//!
//! Figure 6 is the single-box test: 200,000-query streams at swept arrival
//! rates, software versus local FPGA, reporting 99th-percentile latency.
//! Figure 11 adds the remote-FPGA curve, where feature extraction runs on
//! another machine's FPGA reached over LTL through the real simulated
//! network, and reports against the 99.9th-percentile target.

use apps::ranking::{QueryArrival, RankingMode, RankingParams, RankingServer};
use apps::remote::AcceleratorRole;
use dcnet::{Msg, NodeAddr};
use dcsim::{ComponentId, Engine, SimDuration, SimTime};
use host::{OpenLoopGen, StartGenerator};
use serde::Serialize;

use crate::cluster::ClusterBuilder;

/// Sweep parameters shared by Figures 6 and 11.
#[derive(Debug, Clone)]
pub struct RankingSweepParams {
    /// Queries per load point (paper: a 200,000-query stream).
    pub queries_per_point: u64,
    /// Offered loads to sweep, normalised to the software operating point.
    pub loads: Vec<f64>,
    /// Service timing.
    pub ranking: RankingParams,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for RankingSweepParams {
    fn default() -> Self {
        RankingSweepParams {
            queries_per_point: 200_000,
            loads: vec![
                0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 1.75, 2.0, 2.1, 2.25, 2.4, 2.6, 3.0,
                3.4, 3.8,
            ],
            ranking: RankingParams::default(),
            seed: 0x0F16_0006,
        }
    }
}

/// One measured point on a latency-throughput curve.
#[derive(Debug, Clone, Serialize)]
pub struct CurvePoint {
    /// Offered load, normalised.
    pub offered: f64,
    /// Achieved throughput, normalised.
    pub throughput: f64,
    /// Mean latency, normalised to the latency target.
    pub mean: f64,
    /// 99th-percentile latency, normalised.
    pub p99: f64,
    /// 99.9th-percentile latency, normalised.
    pub p999: f64,
}

/// A complete latency-throughput dataset.
#[derive(Debug, Clone, Serialize)]
pub struct RankingCurves {
    /// Software-only curve.
    pub software: Vec<CurvePoint>,
    /// Local-FPGA curve.
    pub local_fpga: Vec<CurvePoint>,
    /// Remote-FPGA curve (Figure 11 only; empty for Figure 6).
    pub remote_fpga: Vec<CurvePoint>,
    /// The normalisation unit for throughput, queries/s.
    pub throughput_unit_qps: f64,
    /// The normalisation unit for latency (the "production target"), ns.
    pub latency_target_ns: f64,
    /// Throughput gain of the local FPGA at the 99th-percentile latency
    /// target (the paper reports 2.25x).
    pub fpga_gain_at_target: f64,
}

impl RankingCurves {
    /// Renders the curves as aligned columns.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>8} {:>11} {:>8} {:>8} {:>8}\n",
            "mode", "offered", "throughput", "mean", "p99", "p99.9"
        ));
        let mut dump = |name: &str, pts: &[CurvePoint]| {
            for p in pts {
                out.push_str(&format!(
                    "{:<12} {:>8.2} {:>11.2} {:>8.2} {:>8.2} {:>8.2}\n",
                    name, p.offered, p.throughput, p.mean, p.p99, p.p999
                ));
            }
        };
        dump("software", &self.software);
        dump("local-fpga", &self.local_fpga);
        dump("remote-fpga", &self.remote_fpga);
        out.push_str(&format!(
            "fpga throughput gain at p99 target: {:.2}x\n",
            self.fpga_gain_at_target
        ));
        out
    }
}

struct RawPoint {
    offered_qps: f64,
    throughput_qps: f64,
    mean_ns: f64,
    p99_ns: f64,
    p999_ns: f64,
}

/// Runs one standalone (no network) load point.
fn run_point(
    mode: RankingMode,
    params: &RankingParams,
    qps: f64,
    queries: u64,
    seed: u64,
) -> RawPoint {
    let mut e: Engine<Msg> = Engine::new(seed);
    let server_id = e.next_component_id();
    e.add_component(RankingServer::new(params.clone(), mode));
    let gen = e.add_component(OpenLoopGen::new(
        server_id,
        SimDuration::from_secs_f64(1.0 / qps),
        Some(queries),
        |id, _| Msg::custom(QueryArrival { id }),
    ));
    e.schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));
    e.run_to_idle();
    let now = e.now();
    let server = e.component::<RankingServer>(server_id).unwrap();
    extract_point(server, now, qps)
}

fn extract_point(server: &RankingServer, now: SimTime, offered_qps: f64) -> RawPoint {
    let throughput = server.throughput(now);
    let lat = server.latencies();
    RawPoint {
        offered_qps,
        throughput_qps: throughput,
        mean_ns: lat.mean(),
        p99_ns: lat.percentile(99.0).unwrap_or(0) as f64,
        p999_ns: lat.percentile(99.9).unwrap_or(0) as f64,
    }
}

/// Runs one remote-FPGA load point over the real network: the ranking
/// server's shell talks LTL to an accelerator role behind another shell in
/// the same pod.
fn run_remote_point(params: &RankingParams, qps: f64, queries: u64, seed: u64) -> RawPoint {
    let mut cluster = ClusterBuilder::paper(seed, 1).build();
    let host_addr = NodeAddr::new(0, 0, 1);
    let accel_addr = NodeAddr::new(0, 1, 1); // different rack, same pod
    let host_shell = cluster.add_shell(host_addr);
    let accel_shell = cluster.add_shell(accel_addr);
    let (to_accel, to_host, _host_recv, accel_recv) = cluster.connect_pair(host_addr, accel_addr);

    let engine = cluster.engine_mut();
    let server_id: ComponentId = engine.add_component(RankingServer::new(
        params.clone(),
        RankingMode::RemoteFpga {
            shell: host_shell,
            conn: to_accel,
        },
    ));
    let mut role = AcceleratorRole::new(
        accel_shell,
        params.fpga_latency,
        params.sigma / 2.0,
        params.fpga_slots,
        params.response_bytes,
    );
    role.add_reply_route(accel_recv, to_host);
    let role_id = engine.add_component(role);
    let gen = engine.add_component(OpenLoopGen::new(
        server_id,
        SimDuration::from_secs_f64(1.0 / qps),
        Some(queries),
        |qid, _| Msg::custom(QueryArrival { id: qid }),
    ));
    engine.schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));
    // Shells deliver LTL payloads to the service components.
    cluster.set_consumer(host_addr, server_id);
    cluster.set_consumer(accel_addr, role_id);
    cluster.run_to_idle();
    let now = cluster.now();
    let server = cluster
        .engine()
        .component::<RankingServer>(server_id)
        .expect("server registered");
    extract_point(server, now, qps)
}

fn normalise(raw: &[RawPoint], unit_qps: f64, target_ns: f64) -> Vec<CurvePoint> {
    raw.iter()
        .map(|r| CurvePoint {
            offered: r.offered_qps / unit_qps,
            throughput: r.throughput_qps / unit_qps,
            mean: r.mean_ns / target_ns,
            p99: r.p99_ns / target_ns,
            p999: r.p999_ns / target_ns,
        })
        .collect()
}

/// The highest normalised throughput whose p99 stays at or below 1.0,
/// interpolated between sweep points.
fn gain_at_target(points: &[CurvePoint]) -> f64 {
    let mut best: f64 = 0.0;
    let mut prev: Option<&CurvePoint> = None;
    for p in points {
        if p.p99 <= 1.0 {
            best = best.max(p.throughput);
        } else if let Some(q) = prev {
            if q.p99 <= 1.0 && p.p99 > q.p99 {
                // Linear interpolation of the crossing.
                let f = (1.0 - q.p99) / (p.p99 - q.p99);
                best = best.max(q.throughput + f * (p.throughput - q.throughput));
            }
        }
        prev = Some(p);
    }
    best
}

/// Runs the Figure 6 sweep (software and local FPGA, single box).
pub fn fig06(params: &RankingSweepParams) -> RankingCurves {
    run_sweep(params, false)
}

/// Runs the Figure 11 sweep (adds the remote-FPGA curve over LTL).
pub fn fig11(params: &RankingSweepParams) -> RankingCurves {
    run_sweep(params, true)
}

/// Which output curve a sweep job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CurveKind {
    /// The normalisation probe at the software operating point.
    Probe,
    Software,
    LocalFpga,
    RemoteFpga,
}

/// One independent sweep point, ready to fan out to a worker thread.
struct SweepJob {
    curve: CurveKind,
    qps: f64,
    seed: u64,
}

fn run_sweep(params: &RankingSweepParams, include_remote: bool) -> RankingCurves {
    // Normalisation: the software operating point is 90% of software
    // capacity; the latency target is the software p99 at that point
    // (measured by the probe job below).
    let unit_qps = 0.9 * params.ranking.software_capacity();

    // Every point is an independent engine with a seed derived from the
    // point index, so the whole sweep — probe included — fans out across
    // threads and stays byte-identical at any thread count.
    let mut jobs = vec![SweepJob {
        curve: CurveKind::Probe,
        qps: unit_qps,
        seed: params.seed,
    }];
    for (i, &load) in params.loads.iter().enumerate() {
        let qps = load * unit_qps;
        let seed = params.seed.wrapping_add(1 + i as u64);
        // Skip deep-overload software points beyond 1.5x: the open-loop
        // queue grows without bound and teaches nothing new.
        if load <= 1.5 {
            jobs.push(SweepJob {
                curve: CurveKind::Software,
                qps,
                seed,
            });
        }
        jobs.push(SweepJob {
            curve: CurveKind::LocalFpga,
            qps,
            seed,
        });
        if include_remote && load <= 2.6 {
            jobs.push(SweepJob {
                curve: CurveKind::RemoteFpga,
                qps,
                seed,
            });
        }
    }

    let ranking = &params.ranking;
    let queries = params.queries_per_point;
    let points = crate::sweep::parallel_map(jobs, |job| {
        let raw = match job.curve {
            CurveKind::Probe | CurveKind::Software => {
                run_point(RankingMode::Software, ranking, job.qps, queries, job.seed)
            }
            CurveKind::LocalFpga => {
                run_point(RankingMode::LocalFpga, ranking, job.qps, queries, job.seed)
            }
            CurveKind::RemoteFpga => run_remote_point(ranking, job.qps, queries, job.seed),
        };
        (job.curve, raw)
    });

    let mut target_ns = 0.0;
    let mut software = Vec::new();
    let mut local = Vec::new();
    let mut remote = Vec::new();
    for (curve, raw) in points {
        match curve {
            CurveKind::Probe => target_ns = raw.p99_ns,
            CurveKind::Software => software.push(raw),
            CurveKind::LocalFpga => local.push(raw),
            CurveKind::RemoteFpga => remote.push(raw),
        }
    }

    let local_points = normalise(&local, unit_qps, target_ns);
    RankingCurves {
        software: normalise(&software, unit_qps, target_ns),
        fpga_gain_at_target: gain_at_target(&local_points),
        local_fpga: local_points,
        remote_fpga: normalise(&remote, unit_qps, target_ns),
        throughput_unit_qps: unit_qps,
        latency_target_ns: target_ns,
    }
}
