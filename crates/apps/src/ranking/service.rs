//! The ranking service latency/throughput model (Figures 6, 7, 8, 11).
//!
//! Correctness of the feature computation is covered by the ffu/dpf/score
//! modules; this module models its *timing* on a production server. A
//! query costs software time (scoring, snippet work) plus feature
//! extraction, which either burns core time (software mode), runs on the
//! local FPGA over PCIe (local mode), or runs on a remote FPGA over LTL
//! (remote mode). Calibration: the paper's single-box result is 2.25x
//! throughput at the same 99th-percentile latency, which pins the ratio of
//! feature time to software time at 1.25.

use std::collections::HashMap;

use bytes::Bytes;
use dcnet::Msg;
use dcsim::{Component, ComponentId, Context, SimDuration, SimRng, SimTime};
use host::{CorePool, PcieModel};
use shell::LtlSend;
use telemetry::Histogram;

use crate::remote::{decode_reply, PayloadBuf};

/// A query arriving at the ranking service (sent by a workload generator).
#[derive(Debug, Clone, Copy)]
pub struct QueryArrival {
    /// Query id (unique per generator).
    pub id: u64,
}

/// How feature extraction is executed.
#[derive(Debug, Clone, Copy)]
pub enum RankingMode {
    /// Everything on host cores.
    Software,
    /// FFU/DPF on the local FPGA via PCIe DMA.
    LocalFpga,
    /// FFU/DPF on a remote FPGA reached over LTL through the local shell.
    RemoteFpga {
        /// The local shell component.
        shell: ComponentId,
        /// LTL send connection to the remote accelerator.
        conn: shell::ltl::SendConnId,
    },
}

/// Ranking service timing parameters.
#[derive(Debug, Clone)]
pub struct RankingParams {
    /// Worker cores on the server.
    pub cores: usize,
    /// Mean software (scoring/serving) time per query.
    pub sw_service: SimDuration,
    /// Mean feature-extraction core time per query (software mode only).
    pub feature_service: SimDuration,
    /// Lognormal sigma of service-time variability.
    pub sigma: f64,
    /// FPGA feature-extraction latency per query (FFU + DPF pipeline).
    pub fpga_latency: SimDuration,
    /// Queries the FPGA pipeline processes concurrently.
    pub fpga_slots: usize,
    /// PCIe model for local offload.
    pub pcie: PcieModel,
    /// Bytes shipped to the FPGA per query (document + query state).
    pub request_bytes: usize,
    /// Bytes returned (feature vector).
    pub response_bytes: usize,
}

impl Default for RankingParams {
    fn default() -> Self {
        RankingParams {
            cores: 12,
            sw_service: SimDuration::from_millis(3),
            feature_service: SimDuration::from_micros(3_750),
            sigma: 0.25,
            fpga_latency: SimDuration::from_micros(600),
            fpga_slots: 8,
            pcie: PcieModel::default(),
            request_bytes: 24 * 1024,
            response_bytes: 2 * 1024,
        }
    }
}

impl RankingParams {
    /// Saturation throughput (queries/s) in software mode.
    pub fn software_capacity(&self) -> f64 {
        self.cores as f64 / (self.sw_service + self.feature_service).as_secs_f64()
    }

    /// Saturation throughput in FPGA mode (host cores are the bottleneck;
    /// the FPGA is deliberately underutilised, as the paper observes).
    pub fn fpga_capacity(&self) -> f64 {
        let host = self.cores as f64 / self.sw_service.as_secs_f64();
        let fpga = self.fpga_slots as f64 / self.fpga_latency.as_secs_f64();
        host.min(fpga)
    }
}

fn lognormal_service(rng: &mut SimRng, mean: SimDuration, sigma: f64) -> SimDuration {
    // mu chosen so the distribution's mean equals `mean`.
    let mu = (mean.as_secs_f64()).ln() - sigma * sigma / 2.0;
    SimDuration::from_secs_f64(rng.lognormal(mu, sigma))
}

/// The ranking service on one server.
///
/// # Examples
///
/// ```
/// use apps::ranking::{RankingMode, RankingParams, RankingServer};
///
/// let params = RankingParams::default();
/// // The paper's 2.25x: capacity ratio between FPGA and software modes.
/// let gain = params.fpga_capacity() / params.software_capacity();
/// assert!((gain - 2.25).abs() < 0.01);
/// let server = RankingServer::new(params, RankingMode::LocalFpga);
/// assert_eq!(server.completed(), 0);
/// ```
pub struct RankingServer {
    params: RankingParams,
    mode: RankingMode,
    cores: CorePool,
    fpga: CorePool,
    latencies: Histogram,
    outstanding: HashMap<u64, SimTime>,
    /// The remote-mode request payload, refilled per query.
    payload: PayloadBuf,
    completed: u64,
    record_trace: bool,
    trace: Vec<(u64, u64)>,
}

impl RankingServer {
    /// Creates a server in the given mode.
    pub fn new(params: RankingParams, mode: RankingMode) -> RankingServer {
        RankingServer {
            cores: CorePool::new(params.cores),
            fpga: CorePool::new(params.fpga_slots),
            params,
            mode,
            latencies: Histogram::new(),
            outstanding: HashMap::new(),
            payload: PayloadBuf::default(),
            completed: 0,
            record_trace: false,
            trace: Vec::new(),
        }
    }

    /// Enables per-query `(arrival_ns, latency_ns)` trace recording, used
    /// by the time-series production experiments (Figures 7-8).
    pub fn enable_trace(&mut self) {
        self.record_trace = true;
    }

    /// The recorded `(arrival_ns, latency_ns)` trace.
    pub fn trace(&self) -> &[(u64, u64)] {
        &self.trace
    }

    /// Per-query end-to-end latencies (ns).
    pub fn latencies(&self) -> &Histogram {
        &self.latencies
    }

    /// Queries completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Mean completion throughput since the start of the run, in queries/s.
    pub fn throughput(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(SimTime::ZERO).as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.completed as f64 / elapsed
        }
    }

    fn finish(&mut self, arrived: SimTime, done: SimTime) {
        let latency = done.saturating_since(arrived);
        self.latencies.record(latency.as_nanos());
        if self.record_trace {
            self.trace.push((arrived.as_nanos(), latency.as_nanos()));
        }
        self.completed += 1;
    }

    fn on_query(&mut self, q: QueryArrival, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now();
        match self.mode {
            RankingMode::Software => {
                let service = lognormal_service(
                    ctx.rng(),
                    self.params.sw_service + self.params.feature_service,
                    self.params.sigma,
                );
                let (_, end) = self.cores.assign(now, service);
                self.finish(now, end);
            }
            RankingMode::LocalFpga => {
                // Feature extraction on the FPGA (PCIe there and back, the
                // pipeline slot), then the software portion on a core.
                let dma = self.params.pcie.round_trip(
                    self.params.request_bytes as u64,
                    self.params.response_bytes as u64,
                );
                let fpga_service =
                    lognormal_service(ctx.rng(), self.params.fpga_latency, self.params.sigma / 2.0);
                let (_, features_done) = self.fpga.assign(now, fpga_service);
                let sw = lognormal_service(ctx.rng(), self.params.sw_service, self.params.sigma);
                let (_, end) = self.cores.assign(features_done + dma, sw);
                self.finish(now, end);
            }
            RankingMode::RemoteFpga { shell, conn } => {
                self.outstanding.insert(q.id, now);
                let payload = self.payload.request(q.id, self.params.request_bytes);
                ctx.send(
                    shell,
                    Msg::LtlSend(LtlSend {
                        conn,
                        vc: 1,
                        payload,
                    }),
                );
            }
        }
    }

    fn on_reply(&mut self, payload: &Bytes, ctx: &mut Context<'_, Msg>) {
        let Some(id) = decode_reply(payload) else {
            return;
        };
        let Some(arrived) = self.outstanding.remove(&id) else {
            return;
        };
        let now = ctx.now();
        let sw = lognormal_service(ctx.rng(), self.params.sw_service, self.params.sigma);
        let (_, end) = self.cores.assign(now, sw);
        self.finish(arrived, end);
    }
}

impl Component<Msg> for RankingServer {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg.downcast::<QueryArrival>() {
            Ok(q) => self.on_query(q, ctx),
            Err(msg) => {
                if let Ok(del) = msg.downcast::<shell::LtlDeliver>() {
                    self.on_reply(&del.payload, ctx);
                }
            }
        }
    }
}

impl core::fmt::Debug for RankingServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RankingServer")
            .field("mode", &self.mode)
            .field("completed", &self.completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::Engine;
    use host::{OpenLoopGen, StartGenerator};

    fn run_mode(mode: RankingMode, qps: f64, queries: u64, seed: u64) -> (f64, f64, f64) {
        let params = RankingParams::default();
        let mut e: Engine<Msg> = Engine::new(seed);
        let server_id = e.next_component_id();
        e.add_component(RankingServer::new(params, mode));
        let gen = e.add_component(OpenLoopGen::new(
            server_id,
            SimDuration::from_secs_f64(1.0 / qps),
            Some(queries),
            |id, _| Msg::custom(QueryArrival { id }),
        ));
        e.schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));
        e.run_to_idle();
        let now = e.now();
        let server = e.component_mut::<RankingServer>(server_id).unwrap();
        let thr = server.throughput(now);
        let p99 = server
            .latencies()
            .percentile(99.0)
            .map(|ns| ns as f64 / 1e9)
            .unwrap_or(0.0);
        let mean = server.latencies().mean() / 1e9;
        (thr, mean, p99)
    }

    #[test]
    fn capacities_give_2_25x() {
        let p = RankingParams::default();
        let ratio = p.fpga_capacity() / p.software_capacity();
        assert!((ratio - 2.25).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn software_mode_latency_reasonable_at_low_load() {
        let (_, mean, p99) = run_mode(RankingMode::Software, 500.0, 5_000, 1);
        // Mean ~ 6.75ms service, p99 has lognormal tail but little queueing.
        assert!(mean > 0.006 && mean < 0.009, "mean {mean}");
        assert!(p99 < 0.015, "p99 {p99}");
    }

    #[test]
    fn software_mode_saturates_earlier_than_fpga_mode() {
        let qps = 2_500.0; // above software capacity (~1778), below FPGA (4000)
        let (_, sw_mean, _) = run_mode(RankingMode::Software, qps, 20_000, 2);
        let (_, hw_mean, _) = run_mode(RankingMode::LocalFpga, qps, 20_000, 2);
        assert!(
            sw_mean > 5.0 * hw_mean,
            "software overload mean {sw_mean} vs fpga {hw_mean}"
        );
    }

    #[test]
    fn fpga_mode_latency_lower_even_at_low_load() {
        let (_, sw, _) = run_mode(RankingMode::Software, 200.0, 3_000, 3);
        let (_, hw, _) = run_mode(RankingMode::LocalFpga, 200.0, 3_000, 3);
        assert!(hw < sw, "fpga {hw} vs software {sw}");
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let (thr, _, _) = run_mode(RankingMode::LocalFpga, 1_000.0, 20_000, 4);
        assert!((thr - 1_000.0).abs() < 60.0, "thr {thr}");
    }

    #[test]
    fn fpga_remains_underutilised_at_host_saturation() {
        // "the software portion of ranking saturates the host server
        // before the FPGA is saturated"
        let p = RankingParams::default();
        let host_cap = p.cores as f64 / p.sw_service.as_secs_f64();
        let fpga_cap = p.fpga_slots as f64 / p.fpga_latency.as_secs_f64();
        assert!(fpga_cap > 3.0 * host_cap, "fpga {fpga_cap} host {host_cap}");
    }
}
