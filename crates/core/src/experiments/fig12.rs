//! Figure 12: remote DNN pool under oversubscription.
//!
//! A pool of latency-sensitive DNN accelerators is shared by software
//! clients sending synthetic traffic at several times the expected
//! production rate. The client-to-FPGA ratio sweeps up; request latency
//! (enqueue to response) is reported as average/p95/p99, normalised to the
//! locally-attached accelerator in each category. HaaS performs the pool
//! allocation and round-robin client placement.

use apps::remote::{AcceleratorRole, IssueRequest, RemoteClient};
use dcnet::{Msg, NodeAddr};
use dcsim::{SimDuration, SimRng, SimTime};
use haas::{whole_board_pool, ServiceManager};
use host::{CorePool, OpenLoopGen, PcieModel, StartGenerator};
use serde::Serialize;
use shell::tenant::TenantId;
use telemetry::{Histogram, MetricSource};

use crate::cluster::ClusterBuilder;

/// Oversubscription experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig12Params {
    /// Client-to-FPGA ratios to sweep (the paper plots 0.5-3.0).
    pub ratios: Vec<f64>,
    /// Accelerators in the pool.
    pub accelerators: usize,
    /// Per-client request rate (requests/s) — deliberately several times
    /// the expected production rate.
    pub client_rate: f64,
    /// Mean accelerator service time per request.
    pub service: SimDuration,
    /// Service-time lognormal sigma.
    pub sigma: f64,
    /// Accelerator pipeline slots.
    pub slots: usize,
    /// Requests per client per ratio point.
    pub requests_per_client: u64,
    /// Request/response payload sizes.
    pub request_bytes: usize,
    /// Response payload size.
    pub response_bytes: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for Fig12Params {
    fn default() -> Self {
        Fig12Params {
            ratios: vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
            accelerators: 8,
            client_rate: 1_185.0,
            service: SimDuration::from_micros(300),
            sigma: 0.15,
            slots: 8,
            requests_per_client: 4_000,
            request_bytes: 4 * 1024,
            response_bytes: 256,
            seed: 0x0F16_0012,
        }
    }
}

impl Fig12Params {
    /// The client count at which one accelerator saturates
    /// (slots/service divided by the per-client rate; the paper observed
    /// 22.5).
    pub fn saturation_clients(&self) -> f64 {
        let capacity = self.slots as f64 / self.service.as_secs_f64();
        capacity / self.client_rate
    }
}

/// One ratio point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12Row {
    /// Clients per FPGA.
    pub ratio: f64,
    /// Average latency, normalised to locally-attached average.
    pub avg: f64,
    /// 95th percentile, normalised to locally-attached p95.
    pub p95: f64,
    /// 99th percentile, normalised to locally-attached p99.
    pub p99: f64,
    /// Raw remote average in microseconds.
    pub avg_us: f64,
    /// Requests measured.
    pub samples: usize,
}

/// The oversubscription dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12Result {
    /// Sweep rows.
    pub rows: Vec<Fig12Row>,
    /// Locally-attached baseline (avg/p95/p99 in microseconds).
    pub local_us: (f64, f64, f64),
    /// Predicted saturation point in clients/FPGA.
    pub saturation_clients: f64,
}

impl Fig12Result {
    /// Renders as a table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>7} {:>8} {:>8} {:>8} {:>10} {:>8}\n",
            "ratio", "avg", "p95", "p99", "avg(us)", "samples"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:>7.2} {:>8.3} {:>8.3} {:>8.3} {:>10.1} {:>8}\n",
                r.ratio, r.avg, r.p95, r.p99, r.avg_us, r.samples
            ));
        }
        out.push_str(&format!(
            "local baseline: avg {:.1}us p95 {:.1}us p99 {:.1}us; saturation at {:.1} clients/FPGA\n",
            self.local_us.0, self.local_us.1, self.local_us.2, self.saturation_clients
        ));
        out
    }
}

/// Locally-attached baseline: same arrival process and service pipeline,
/// reached over PCIe instead of the network.
fn local_baseline(params: &Fig12Params) -> (f64, f64, f64) {
    let mut rng = SimRng::seed_from(params.seed ^ 0x10ca1);
    let mut pool = CorePool::new(params.slots);
    let pcie =
        PcieModel::default().round_trip(params.request_bytes as u64, params.response_bytes as u64);
    let mut lat = Histogram::new();
    let mut now = SimTime::ZERO;
    let gap = SimDuration::from_secs_f64(1.0 / params.client_rate);
    let mu = params.service.as_secs_f64().ln() - params.sigma * params.sigma / 2.0;
    for _ in 0..params.requests_per_client.max(10_000) {
        now += rng.exp_duration(gap);
        let service = SimDuration::from_secs_f64(rng.lognormal(mu, params.sigma));
        let (_, end) = pool.assign(now, service);
        lat.record((end.saturating_since(now) + pcie).as_nanos());
    }
    (
        lat.mean() / 1e3,
        lat.percentile(95.0).unwrap_or(0) as f64 / 1e3,
        lat.percentile(99.0).unwrap_or(0) as f64 / 1e3,
    )
}

/// Runs one ratio point and returns merged client latencies (µs).
fn run_ratio(params: &Fig12Params, ratio: f64, seed: u64) -> (f64, f64, f64, usize) {
    let clients = ((ratio * params.accelerators as f64).round() as usize).max(1);
    let mut cluster = ClusterBuilder::paper(seed, 1).build();

    // Accelerator pool allocated through HaaS.
    let mut pool =
        whole_board_pool((0..params.accelerators).map(|i| NodeAddr::new(0, i as u16, 0)));
    let mut sm = ServiceManager::new("dnn-pool", TenantId(0));
    sm.grow(&mut pool, SimTime::ZERO, params.accelerators)
        .expect("pool fits");

    let accel_addrs = sm.endpoints();
    let mut accel_shells = Vec::new();
    for &a in &accel_addrs {
        accel_shells.push((a, cluster.add_shell(a)));
    }
    // Clients spread across the pod's remaining racks.
    let client_addrs: Vec<NodeAddr> = (0..clients)
        .map(|i| NodeAddr::new(0, 20 + (i / 20) as u16, (i % 20) as u16))
        .collect();
    for &c in &client_addrs {
        cluster.add_shell(c);
    }

    // Round-robin placement of clients onto accelerators via the SM, and
    // connection setup.
    struct Wiring {
        client: NodeAddr,
        accel: NodeAddr,
        c_send: shell::ltl::SendConnId,
        a_send: shell::ltl::SendConnId,
        a_recv: shell::ltl::RecvConnId,
    }
    let mut wiring = Vec::new();
    for &c in &client_addrs {
        let accel = sm.next_endpoint().expect("pool is non-empty");
        let (c_send, a_send, _c_recv, a_recv) = cluster.connect_pair(c, accel);
        wiring.push(Wiring {
            client: c,
            accel,
            c_send,
            a_send,
            a_recv,
        });
    }

    // Accelerator roles with reply routes for each of their clients.
    let mut role_ids = std::collections::HashMap::new();
    for &(addr, shell_id) in &accel_shells {
        let mut role = AcceleratorRole::new(
            shell_id,
            params.service,
            params.sigma,
            params.slots,
            params.response_bytes,
        );
        for w in wiring.iter().filter(|w| w.accel == addr) {
            role.add_reply_route(w.a_recv, w.a_send);
        }
        let role_id = cluster.engine_mut().add_component(role);
        cluster.set_consumer(addr, role_id);
        role_ids.insert(addr, role_id);
    }

    // Clients + their generators.
    let mut client_ids = Vec::new();
    for (i, w) in wiring.iter().enumerate() {
        let shell_id = cluster.shell_id(w.client).expect("client populated");
        let client = RemoteClient::new(shell_id, w.c_send, params.request_bytes, i as u16);
        let client_id = cluster.engine_mut().add_component(client);
        cluster.set_consumer(w.client, client_id);
        let gap = SimDuration::from_secs_f64(1.0 / params.client_rate);
        let gen = cluster.engine_mut().add_component(OpenLoopGen::new(
            client_id,
            gap,
            Some(params.requests_per_client),
            |_, _| Msg::custom(IssueRequest),
        ));
        let start = SimTime::from_nanos(137 * i as u64); // desynchronise
        cluster
            .engine_mut()
            .schedule(start, gen, Msg::custom(StartGenerator));
        client_ids.push(client_id);
    }

    cluster.run_to_idle();

    // Clients publish through the registry like everything else: extend
    // the cluster snapshot with one child per client (zero-padded so the
    // registry's path order matches wiring order) and read the row off
    // the merged end-to-end latency histogram.
    let mut snap = cluster.metrics_snapshot();
    snap.extend(client_ids.iter().enumerate().map(|(i, &id)| {
        let client: &dyn MetricSource = cluster
            .engine()
            .component::<RemoteClient>(id)
            .expect("client registered");
        (format!("client{i:03}"), client)
    }));
    let merged = snap
        .merged_histogram("latency_ns")
        .unwrap_or_else(|| Histogram::new().snapshot());
    (
        merged.mean / 1e3,
        merged.percentile(95.0).unwrap_or(0) as f64 / 1e3,
        merged.p99.unwrap_or(0) as f64 / 1e3,
        merged.count as usize,
    )
}

/// Runs the Figure 12 sweep.
pub fn run(params: &Fig12Params) -> Fig12Result {
    let local = local_baseline(params);
    // Each ratio point is an independent cluster with an index-derived
    // seed; fan the sweep out across worker threads.
    let points: Vec<(usize, f64)> = params.ratios.iter().copied().enumerate().collect();
    let rows = crate::sweep::parallel_map(points, |(i, ratio)| {
        let (avg, p95, p99, samples) = run_ratio(params, ratio, params.seed.wrapping_add(i as u64));
        Fig12Row {
            ratio,
            avg: avg / local.0,
            p95: p95 / local.1,
            p99: p99 / local.2,
            avg_us: avg,
            samples,
        }
    });
    Fig12Result {
        rows,
        local_us: local,
        saturation_clients: params.saturation_clients(),
    }
}
