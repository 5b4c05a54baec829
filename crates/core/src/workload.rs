//! Fleet-scale open-loop workload generation.
//!
//! The paper's Fig. 10 spans 24 → 250,000 reachable hosts; Dagger-style
//! microservice fleets reach that scale with millions of concurrent
//! open-loop users, not a handful of closed-loop pairs. [`FleetLoadGen`]
//! models that population statistically: each tick it draws a Poisson
//! number of flow arrivals whose rate follows a diurnal [`LoadTrace`]
//! with random burst episodes, and injects them into the flow-level
//! background model ([`dcnet::FlowSim`]) as aggregate batches, one
//! message per tick. Each batch is charged to one representative host of
//! its source pod, and a [`HostTable`] keeps one bit per host slot of
//! which hosts have sourced traffic, so a quarter-million-host fleet
//! costs 31 KB.

use std::sync::Arc;

use dcnet::{FabricShape, FidelityMap, FlowBatch, FlowSimCmd, Msg};
use dcsim::{Component, ComponentId, Context, SimDuration, SimRng};
use host::{LoadTrace, StartGenerator};
use telemetry::{MetricSource, MetricVisitor};

/// Timer token for the per-tick arrival draw.
const TICK_TOKEN: u64 = 2;

/// Statistical description of the fleet's background load.
#[derive(Debug, Clone)]
pub struct FleetWorkloadConfig {
    /// Synthetic user population (millions at paper scale).
    pub users: u64,
    /// Mean offered load per user at multiplier 1.0, bytes per second.
    pub bytes_per_user_sec: f64,
    /// Mean flow size; sets the arrival rate for a given byte load.
    pub mean_flow_bytes: u64,
    /// Arrival-draw quantum. Must be positive.
    pub tick: SimDuration,
    /// Time-varying load multiplier (diurnal at fleet scale).
    pub trace: LoadTrace,
    /// Per-tick probability of entering a burst episode.
    pub burst_prob: f64,
    /// Load multiplier while a burst episode is active.
    pub burst_multiplier: f64,
    /// Length of a burst episode, in ticks.
    pub burst_ticks: u32,
    /// Fraction of arrivals destined for packet-fidelity pods — the
    /// traffic that becomes ECN pressure on the island's spine downlinks.
    pub packet_dst_fraction: f64,
    /// Upper bound on batches per tick; arrivals beyond it are folded
    /// into the existing batches (bytes are never dropped).
    pub max_batches_per_tick: u32,
}

impl Default for FleetWorkloadConfig {
    /// Two million users at 50 KB/s each over 100 KB flows, drawn every
    /// 100 µs on a diurnal trace with 1.5% burst episodes of 20 ticks at
    /// 3x load; 10% of arrivals target the packet island; at most 64
    /// batches per tick.
    fn default() -> Self {
        FleetWorkloadConfig {
            users: 2_000_000,
            bytes_per_user_sec: 50_000.0,
            mean_flow_bytes: 100_000,
            tick: SimDuration::from_nanos(100_000),
            trace: LoadTrace::Diurnal {
                mean: 1.0,
                swing: 0.35,
                period: SimDuration::from_secs(86_400),
                phase: 0.0,
            },
            burst_prob: 0.015,
            burst_multiplier: 3.0,
            burst_ticks: 20,
            packet_dst_fraction: 0.1,
            max_batches_per_tick: 64,
        }
    }
}

/// Which host slots have sourced traffic: one bit per slot of the
/// host's linearized `(pod, tor, host)` coordinate and a running count of
/// the bits set, so a 250k-host fleet costs 31 KB and the count is read
/// without a scan.
#[derive(Debug)]
pub struct HostTable {
    shape: FabricShape,
    touched: Vec<u64>,
    count: usize,
}

impl HostTable {
    /// A table covering every host slot in `shape`, none touched.
    pub fn new(shape: FabricShape) -> Self {
        HostTable {
            shape,
            touched: vec![0; shape.total_hosts().div_ceil(64)],
            count: 0,
        }
    }

    /// Marks host `i` as having sourced traffic.
    pub fn record(&mut self, i: u32) {
        let (word, bit) = (i as usize / 64, 1u64 << (i % 64));
        let w = &mut self.touched[word];
        self.count += usize::from(*w & bit == 0);
        *w |= bit;
    }

    /// Host slots in the table.
    pub fn hosts(&self) -> usize {
        self.shape.total_hosts()
    }

    /// Hosts that have transmitted at least once.
    pub fn hosts_touched(&self) -> usize {
        self.count
    }
}

/// Open-loop fleet traffic source: Poisson arrivals over the synthetic
/// user population, injected into a [`dcnet::FlowSim`] as pod-to-pod
/// aggregate batches. Kick it off by scheduling a
/// [`host::StartGenerator`] at the desired start time; it runs
/// until the simulation horizon (drive it with `run_for`/`run_until`).
pub struct FleetLoadGen {
    cfg: FleetWorkloadConfig,
    flowsim: ComponentId,
    flow_pods: Vec<u16>,
    packet_pods: Vec<u16>,
    hosts: HostTable,
    /// This tick's batches, sent to the flow model as one
    /// [`FlowSimCmd::Inject`]. The flow model drops its clone at the same
    /// instant, so the next tick refills the same buffer.
    batches: Arc<Vec<FlowBatch>>,
    burst_left: u32,
    running: bool,
    ticks: u64,
    batches_sent: u64,
    flows_offered: u64,
    bytes_offered: u64,
    bursts_entered: u64,
}

impl FleetLoadGen {
    /// A generator over `shape`, sourcing from `map`'s flow pods and
    /// aiming `packet_dst_fraction` of arrivals at its packet pods.
    ///
    /// # Panics
    ///
    /// Panics if `map` has no flow pods (an all-packet fabric has no
    /// aggregate background to generate), or if `cfg.tick` is zero (the
    /// generator would re-arm at the same instant forever).
    pub fn new(
        cfg: FleetWorkloadConfig,
        shape: FabricShape,
        map: &FidelityMap,
        flowsim: ComponentId,
    ) -> Self {
        let flow_pods: Vec<u16> = map.flow_pods().collect();
        assert!(
            !flow_pods.is_empty(),
            "fleet workload needs at least one flow-fidelity pod"
        );
        assert!(
            cfg.tick > SimDuration::ZERO,
            "FleetWorkloadConfig::tick must be positive"
        );
        FleetLoadGen {
            batches: Arc::new(Vec::with_capacity(cfg.max_batches_per_tick as usize)),
            cfg,
            flowsim,
            flow_pods,
            packet_pods: map.packet_pods().collect(),
            hosts: HostTable::new(shape),
            burst_left: 0,
            running: false,
            ticks: 0,
            batches_sent: 0,
            flows_offered: 0,
            bytes_offered: 0,
            bursts_entered: 0,
        }
    }

    /// The host slots that have sourced traffic.
    pub fn hosts(&self) -> &HostTable {
        &self.hosts
    }

    /// Total bytes offered to the flow model so far.
    pub fn bytes_offered(&self) -> u64 {
        self.bytes_offered
    }

    /// Total flow arrivals drawn so far.
    pub fn flows_offered(&self) -> u64 {
        self.flows_offered
    }

    /// Poisson draw: Knuth's product method below mean 64, normal
    /// approximation above (the SoA rate at fleet scale is far past the
    /// crossover every tick).
    fn poisson(rng: &mut SimRng, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean < 64.0 {
            let limit = (-mean).exp();
            let mut product = rng.uniform();
            let mut count = 0u64;
            while product > limit {
                product *= rng.uniform();
                count += 1;
            }
            count
        } else {
            rng.normal(mean, mean.sqrt()).max(0.0).round() as u64
        }
    }

    fn tick(&mut self, ctx: &mut Context<'_, Msg>) {
        self.ticks += 1;
        let mut mult = self.cfg.trace.multiplier(ctx.now());
        if self.burst_left > 0 {
            self.burst_left -= 1;
            mult *= self.cfg.burst_multiplier;
        } else if ctx.rng().chance(self.cfg.burst_prob) {
            self.burst_left = self.cfg.burst_ticks;
            self.bursts_entered += 1;
        }
        let tick_secs = self.cfg.tick.as_secs_f64();
        let offered = self.cfg.users as f64 * self.cfg.bytes_per_user_sec * tick_secs * mult;
        let mean_flows = offered / self.cfg.mean_flow_bytes as f64;
        let flows = Self::poisson(ctx.rng(), mean_flows);
        if flows > 0 {
            let tick_batches = Arc::make_mut(&mut self.batches);
            tick_batches.clear();
            let batches = (flows.min(self.cfg.max_batches_per_tick as u64)).max(1);
            let flows_per_batch = flows / batches;
            let mut extra = flows - flows_per_batch * batches;
            for _ in 0..batches {
                let batch_flows = flows_per_batch + u64::from(extra > 0);
                extra = extra.saturating_sub(1);
                if batch_flows == 0 {
                    continue;
                }
                let src_pod = self.flow_pods[ctx.rng().index(self.flow_pods.len())];
                let dst_pod = if !self.packet_pods.is_empty()
                    && ctx.rng().chance(self.cfg.packet_dst_fraction)
                {
                    self.packet_pods[ctx.rng().index(self.packet_pods.len())]
                } else {
                    self.flow_pods[ctx.rng().index(self.flow_pods.len())]
                };
                let bytes = batch_flows * self.cfg.mean_flow_bytes;
                // Charge the batch to one representative host in the
                // source pod: per-host granularity without per-flow state.
                let hosts_per_pod =
                    self.hosts.shape.tors_per_pod as u32 * self.hosts.shape.hosts_per_tor as u32;
                let slot =
                    src_pod as u32 * hosts_per_pod + ctx.rng().index(hosts_per_pod as usize) as u32;
                self.hosts.record(slot);
                self.flows_offered += batch_flows;
                self.bytes_offered += bytes;
                self.batches_sent += 1;
                tick_batches.push(FlowBatch {
                    src_pod,
                    dst_pod,
                    bytes,
                    flows: batch_flows.min(u32::MAX as u64) as u32,
                });
            }
            ctx.send(
                self.flowsim,
                Msg::FlowSim(FlowSimCmd::Inject(Arc::clone(&self.batches))),
            );
        }
        ctx.timer_after(self.cfg.tick, TICK_TOKEN);
    }
}

impl Component<Msg> for FleetLoadGen {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<StartGenerator>().is_ok() && !self.running {
            self.running = true;
            self.tick(ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Msg>) {
        if token == TICK_TOKEN {
            self.tick(ctx);
        }
    }
}

impl core::fmt::Debug for FleetLoadGen {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FleetLoadGen")
            .field("users", &self.cfg.users)
            .field("hosts", &self.hosts.hosts())
            .field("ticks", &self.ticks)
            .field("bytes_offered", &self.bytes_offered)
            .finish()
    }
}

impl MetricSource for FleetLoadGen {
    fn metrics(&self, m: &mut MetricVisitor<'_>) {
        m.counter("ticks", self.ticks);
        m.counter("batches_sent", self.batches_sent);
        m.counter("flows_offered", self.flows_offered);
        m.counter("bytes_offered", self.bytes_offered);
        m.counter("bursts_entered", self.bursts_entered);
        m.gauge("users", self.cfg.users as f64);
        m.gauge("hosts_touched", self.hosts.hosts_touched() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnet::{FlowSim, FlowSimConfig};
    use dcsim::{Engine, SimTime};

    fn shape() -> FabricShape {
        FabricShape {
            hosts_per_tor: 24,
            tors_per_pod: 4,
            pods: 6,
            spines: 4,
        }
    }

    /// Whether host slot `i`'s bit is set, read from the words directly.
    fn is_touched(t: &HostTable, i: u32) -> bool {
        t.touched[i as usize / 64] >> (i % 64) & 1 == 1
    }

    fn small_cfg() -> FleetWorkloadConfig {
        FleetWorkloadConfig {
            users: 10_000,
            bytes_per_user_sec: 1_000_000.0,
            trace: LoadTrace::Constant(1.0),
            ..FleetWorkloadConfig::default()
        }
    }

    /// The running count against a set of every slot recorded, on a
    /// shape of 5 x 3 x 7 = 105 slots, whose last word is partly unused.
    #[test]
    fn touched_count_matches_a_set_of_recorded_slots() {
        let shape = FabricShape {
            hosts_per_tor: 7,
            tors_per_pod: 3,
            pods: 5,
            spines: 2,
        };
        let mut t = HostTable::new(shape);
        assert_eq!(t.hosts(), 105);
        let mut seen = std::collections::BTreeSet::new();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1_000 {
            let slot = rng.index(t.hosts()) as u32;
            t.record(slot);
            seen.insert(slot);
            assert_eq!(t.hosts_touched(), seen.len());
        }
        assert_eq!(
            seen.len(),
            105,
            "every slot drawn, the last word's 41 included"
        );
        assert!((0..105).all(|i| is_touched(&t, i)));
        let mut fresh = HostTable::new(shape);
        for slot in [104, 63, 64, 0, 104, 63] {
            fresh.record(slot);
        }
        assert_eq!(fresh.hosts_touched(), 4);
        assert!(!is_touched(&fresh, 1) && !is_touched(&fresh, 103));
    }

    #[test]
    fn generator_offers_expected_load() {
        let map = FidelityMap::packet_island(6, 2);
        let mut e: Engine<Msg> = Engine::new(42);
        let sim = e.add_component(FlowSim::new(FlowSimConfig::new(shape())));
        let gen = e.add_component(FleetLoadGen::new(small_cfg(), shape(), &map, sim));
        e.schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));
        // 10 ms at 10k users x 1 MB/s = ~100 MB expected (more when a
        // burst episode lands inside the window).
        e.run_until(SimTime::from_millis(10));
        let g = e.component::<FleetLoadGen>(gen).unwrap();
        let offered = g.bytes_offered();
        assert!(
            (50_000_000..=400_000_000).contains(&offered),
            "offered {offered} bytes, expected ~100 MB"
        );
        // Sources come only from flow pods (2..6 → slots ≥ 2 * 96).
        let touched: Vec<u32> = (0..g.hosts().hosts() as u32)
            .filter(|&i| is_touched(g.hosts(), i))
            .collect();
        assert!(!touched.is_empty());
        assert_eq!(touched.len(), g.hosts().hosts_touched());
        assert!(touched.iter().all(|&i| i >= 2 * 96), "{touched:?}");
        // Every offered byte reached the flow model's ledger.
        let fs = e.component::<FlowSim>(sim).unwrap();
        assert_eq!(
            fs.bytes_injected() + fs.bytes_rejected(),
            offered,
            "flow model must account for the whole offered load"
        );
    }

    /// A zero tick re-arms the generator at the same instant forever.
    #[test]
    #[should_panic(expected = "FleetWorkloadConfig::tick")]
    fn zero_tick_is_rejected() {
        let cfg = FleetWorkloadConfig {
            tick: SimDuration::ZERO,
            ..small_cfg()
        };
        FleetLoadGen::new(
            cfg,
            shape(),
            &FidelityMap::packet_island(6, 2),
            ComponentId::from_raw(0),
        );
    }

    #[test]
    fn same_seed_same_offered_load() {
        let run = |seed: u64| {
            let map = FidelityMap::packet_island(6, 1);
            let mut e: Engine<Msg> = Engine::new(seed);
            let sim = e.add_component(FlowSim::new(FlowSimConfig::new(shape())));
            let gen = e.add_component(FleetLoadGen::new(small_cfg(), shape(), &map, sim));
            e.schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));
            e.run_until(SimTime::from_millis(5));
            let g = e.component::<FleetLoadGen>(gen).unwrap();
            (g.bytes_offered(), g.flows_offered(), g.ticks)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).0, run(10).0, "different seeds should differ");
    }
}
