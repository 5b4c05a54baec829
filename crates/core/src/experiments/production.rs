//! Figures 7 and 8: five days of production traffic on two datacenters.
//!
//! Two identically configured simulated datacenters serve the same diurnal
//! query stream; one runs ranking in software and sits behind the
//! production load balancer (which caps admitted traffic when tail
//! latencies spike), the other has FPGAs enabled and takes the full
//! offered load. Figure 7 is the resulting time series of offered load and
//! 99.9th-percentile latency; Figure 8 replots the same buckets as a
//! load-versus-latency scatter.

use apps::ranking::{QueryArrival, RankingMode, RankingParams, RankingServer};
use dcnet::Msg;
use dcsim::{Engine, SimDuration, SimTime};
use host::{LoadTrace, OpenLoopGen, StartGenerator};
use serde::Serialize;
use telemetry::Histogram;

/// Production experiment parameters.
#[derive(Debug, Clone)]
pub struct ProductionParams {
    /// Days of traffic (paper: 5).
    pub days: u32,
    /// Compressed length of one simulated day.
    pub day_length: SimDuration,
    /// Mean offered load in queries/s (per representative server).
    pub base_qps: f64,
    /// Diurnal swing as a fraction of the mean (peak = mean * (1+swing)).
    pub swing: f64,
    /// Fraction of software capacity at which the load balancer caps the
    /// software datacenter's admitted traffic.
    pub balancer_cap: f64,
    /// Reporting buckets per day.
    pub buckets_per_day: usize,
    /// Service timing.
    pub ranking: RankingParams,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for ProductionParams {
    fn default() -> Self {
        let ranking = RankingParams::default();
        ProductionParams {
            days: 5,
            day_length: SimDuration::from_secs(40),
            base_qps: 0.85 * ranking.software_capacity(),
            swing: 1.15,
            balancer_cap: 0.97,
            buckets_per_day: 24,
            ranking,
            seed: 0x0F16_0007,
        }
    }
}

/// One reporting bucket of the five-day run.
#[derive(Debug, Clone, Serialize)]
pub struct ProductionBucket {
    /// Bucket start, in (compressed) days.
    pub day: f64,
    /// Software DC admitted load, normalised to its mean.
    pub sw_load: f64,
    /// Software DC p99.9 latency, normalised to the target.
    pub sw_p999: f64,
    /// FPGA DC offered load, normalised to the software mean.
    pub fpga_load: f64,
    /// FPGA DC p99.9 latency, normalised to the target.
    pub fpga_p999: f64,
}

/// The five-day dataset (Figure 7); Figure 8 is a re-plot of the buckets.
#[derive(Debug, Clone, Serialize)]
pub struct ProductionResult {
    /// Time series.
    pub buckets: Vec<ProductionBucket>,
    /// Latency normalisation unit (software p99.9 target), ns.
    pub latency_target_ns: f64,
    /// Load normalisation unit, queries/s.
    pub load_unit_qps: f64,
    /// Peak load absorbed by the FPGA DC, normalised.
    pub fpga_peak_load: f64,
    /// Peak load admitted to the software DC, normalised.
    pub sw_peak_load: f64,
    /// Worst software bucket p99.9 (normalised) — the latency spikes.
    pub sw_worst_p999: f64,
    /// Worst FPGA bucket p99.9 (normalised).
    pub fpga_worst_p999: f64,
}

/// `(load, p99.9)` pairs for one datacenter, Figure 8's axes.
pub type Scatter = Vec<(f64, f64)>;

impl ProductionResult {
    /// Figure 8 rows: `(load, p99.9)` pairs for both datacenters.
    pub fn scatter(&self) -> (Scatter, Scatter) {
        let sw = self
            .buckets
            .iter()
            .map(|b| (b.sw_load, b.sw_p999))
            .collect();
        let fpga = self
            .buckets
            .iter()
            .map(|b| (b.fpga_load, b.fpga_p999))
            .collect();
        (sw, fpga)
    }

    /// Renders the time series as a table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>6} {:>9} {:>9} {:>10} {:>10}\n",
            "day", "sw_load", "sw_p999", "fpga_load", "fpga_p999"
        ));
        for b in &self.buckets {
            out.push_str(&format!(
                "{:>6.2} {:>9.2} {:>9.2} {:>10.2} {:>10.2}\n",
                b.day, b.sw_load, b.sw_p999, b.fpga_load, b.fpga_p999
            ));
        }
        out
    }
}

fn run_datacenter(
    params: &ProductionParams,
    mode: RankingMode,
    trace: LoadTrace,
    seed: u64,
) -> Vec<(u64, u64)> {
    let mut e: Engine<Msg> = Engine::new(seed);
    let server_id = e.next_component_id();
    let mut server = RankingServer::new(params.ranking.clone(), mode);
    server.enable_trace();
    e.add_component(server);
    let gen = e.add_component(
        OpenLoopGen::new(
            server_id,
            SimDuration::from_secs_f64(1.0 / params.base_qps),
            None,
            |id, _| Msg::custom(QueryArrival { id }),
        )
        .with_trace(trace),
    );
    e.schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));
    let horizon = SimTime::ZERO + params.day_length * params.days as u64;
    e.run_until(horizon);
    e.component::<RankingServer>(server_id)
        .expect("server registered")
        .trace()
        .to_vec()
}

/// Runs the five-day production experiment.
pub fn run(params: &ProductionParams) -> ProductionResult {
    let diurnal = LoadTrace::Diurnal {
        mean: 1.0,
        swing: params.swing,
        period: params.day_length,
        phase: -core::f64::consts::FRAC_PI_2, // trough at midnight
    };
    let cap = params.balancer_cap * params.ranking.software_capacity() / params.base_qps;
    let sw_trace = diurnal.clone().capped(cap);

    // The two datacenters are independent simulations; run them on
    // separate worker threads.
    let jobs = vec![
        (RankingMode::Software, sw_trace, params.seed),
        (RankingMode::LocalFpga, diurnal, params.seed.wrapping_add(1)),
    ];
    let mut traces = crate::sweep::parallel_map(jobs, |(mode, trace, seed)| {
        run_datacenter(params, mode, trace, seed)
    });
    let fpga = traces.pop().expect("two datacenters simulated");
    let sw = traces.pop().expect("two datacenters simulated");

    // Latency target: the software DC's healthy-hours p99.9 — computed
    // over the lowest-load half of its buckets below.
    let total_buckets = params.buckets_per_day * params.days as usize;
    let bucket_len = params.day_length.as_nanos() * params.days as u64 / total_buckets as u64;

    let bucketise = |trace: &[(u64, u64)]| -> Vec<(f64, f64)> {
        // (queries/s, p99.9 ns) per bucket
        let mut recs: Vec<Histogram> = (0..total_buckets).map(|_| Histogram::new()).collect();
        for &(at, lat) in trace {
            let b = ((at / bucket_len) as usize).min(total_buckets - 1);
            recs[b].record(lat);
        }
        recs.iter()
            .map(|r| {
                let qps = r.count() as f64 / (bucket_len as f64 / 1e9);
                (qps, r.percentile(99.9).unwrap_or(0) as f64)
            })
            .collect()
    };

    let sw_buckets = bucketise(&sw);
    let fpga_buckets = bucketise(&fpga);

    // Target = median healthy p99.9 of the software DC's quietest half,
    // ignoring near-empty overnight buckets.
    let mut sorted: Vec<f64> = {
        let mut by_load: Vec<&(f64, f64)> = sw_buckets
            .iter()
            .filter(|b| b.0 > 0.2 * params.base_qps)
            .collect();
        by_load.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite loads"));
        by_load[..(by_load.len() / 2).max(1)]
            .iter()
            .map(|b| b.1)
            .collect()
    };
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let target_ns = sorted[sorted.len() / 2].max(1.0);
    let load_unit = params.base_qps;

    let buckets: Vec<ProductionBucket> = (0..total_buckets)
        .map(|i| ProductionBucket {
            day: i as f64 / params.buckets_per_day as f64,
            sw_load: sw_buckets[i].0 / load_unit,
            sw_p999: sw_buckets[i].1 / target_ns,
            fpga_load: fpga_buckets[i].0 / load_unit,
            fpga_p999: fpga_buckets[i].1 / target_ns,
        })
        .collect();

    let fold = |f: fn(&ProductionBucket) -> f64| buckets.iter().map(f).fold(0.0f64, f64::max);
    ProductionResult {
        fpga_peak_load: fold(|b| b.fpga_load),
        sw_peak_load: fold(|b| b.sw_load),
        sw_worst_p999: fold(|b| b.sw_p999),
        fpga_worst_p999: fold(|b| b.fpga_p999),
        buckets,
        latency_target_ns: target_ns,
        load_unit_qps: load_unit,
    }
}
