//! Flow-level aggregate traffic model for far pods.
//!
//! At fleet scale (the paper's quarter-million hosts) packet-level
//! simulation of every pod is neither affordable nor necessary: only the
//! pods hosting the flows under study need per-packet fidelity. [`FlowSim`]
//! models everything else as fluid — background flows are `(src_pod,
//! dst_pod, remaining_bytes)` records drained each tick by an integer
//! equal split of the pod uplink/downlink capacity, with no per-packet
//! events at all. Each flow gets the smaller of its uplink's and its
//! downlink's equal share; what a flow leaves unused is not handed to the
//! others, so the split is not max-min fair.
//!
//! # Boundary adapter
//!
//! The two fidelity domains meet at the spine. Each tick the flow model
//! converts the bytes it delivered toward a packet-fidelity pod into a
//! queue-occupancy estimate for that pod's spine downlink ports (an
//! integer M/M/1 `L = ρ/(1-ρ)` expectation scaled by the mean frame size,
//! saturating at [`FlowSimConfig::max_pressure_bytes`]) and publishes it
//! via [`SwitchCmd::SetBackgroundLoad`]. The pressure deepens the RED/ECN
//! marking depth on those ports — packet-level flows *see* the congestion
//! — but never tail-drops, delays or pauses a packet: the aggregate model
//! marks, it does not destroy. Updates are sent only when a pod's pressure
//! changes, after a fixed [`FlowSimConfig::adapter_delay`] (which must be
//! at least the shard lookahead when the packet island is sharded).
//!
//! # Determinism and conservation
//!
//! The drain is pure integer arithmetic in flow-arrival order; for a given
//! seed the sequence of ticks, completions and pressure updates is exactly
//! reproducible. Every injected byte is accounted for:
//! `bytes_injected == bytes_delivered + bytes_in_flight`, with rejected
//! injections (beyond [`FlowSimConfig::max_flows`]) tallied separately —
//! a property pinned by a proptest in `tests/flowsim_properties.rs`.

use std::sync::Arc;

use dcsim::{Component, ComponentId, Context, SimDuration};
use telemetry::{MetricSource, MetricVisitor};

use crate::msg::Msg;
use crate::switch::{FabricShape, SwitchCmd};
use crate::topology::{Fidelity, FidelityMap};

/// Timer token for the periodic drain tick.
const TICK_TOKEN: u64 = 1;

/// Static parameters of the flow-level model.
#[derive(Debug, Clone)]
pub struct FlowSimConfig {
    /// Fabric dimensions (pod count bounds the flow endpoints; spine count
    /// scales pod capacity).
    pub shape: FabricShape,
    /// Drain quantum. Smaller ticks track load changes faster at more
    /// event cost; 100 µs keeps a 250k-host run cheap while staying well
    /// under diurnal/burst time scales. Must be positive.
    pub tick: SimDuration,
    /// Line rate of one pod uplink/downlink through the spine tier.
    pub port_gbps: f64,
    /// Delay before a pressure change reaches the spine switches. Must be
    /// ≥ the shard lookahead when the packet island runs sharded.
    pub adapter_delay: SimDuration,
    /// Mean frame size used to convert expected-queue-length (frames)
    /// into bytes for the ECN depth estimate.
    pub mean_frame_bytes: u64,
    /// Saturation value for the background-pressure estimate; defaults
    /// above the default ECN `kmax` so a saturated downlink marks every
    /// packet.
    pub max_pressure_bytes: u64,
    /// Upper bound on concurrently active flow records; injections beyond
    /// it are rejected (and counted) rather than grown without bound.
    pub max_flows: usize,
}

impl FlowSimConfig {
    /// Defaults for `shape`: 100 µs tick, 40 GbE ports, 1 µs adapter
    /// delay, 1500-byte frames, 512 KiB pressure saturation, one million
    /// flow records.
    pub fn new(shape: FabricShape) -> Self {
        FlowSimConfig {
            shape,
            tick: SimDuration::from_nanos(100_000),
            port_gbps: 40.0,
            adapter_delay: SimDuration::from_nanos(1_000),
            mean_frame_bytes: 1_500,
            max_pressure_bytes: 512 * 1024,
            max_flows: 1_000_000,
        }
    }

    /// Bytes one pod-facing spine port moves per tick at line rate.
    fn bytes_per_tick_port(&self) -> u64 {
        let secs = self.tick.as_nanos() as f64 * 1e-9;
        (self.port_gbps * 1e9 / 8.0 * secs) as u64
    }
}

/// `flows` aggregate flows carrying `bytes` in total from `src_pod` to
/// `dst_pod`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowBatch {
    /// Originating pod.
    pub src_pod: u16,
    /// Destination pod.
    pub dst_pod: u16,
    /// Total bytes across the batch.
    pub bytes: u64,
    /// Number of flow records to spread the bytes over.
    pub flows: u32,
}

/// Control messages for the flow model, sent as [`Msg::FlowSim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowSimCmd {
    /// Starts every batch, in order. The fleet generator sends one per
    /// tick carrying that tick's batches; the `Arc` lets it refill the
    /// same buffer next tick once the flow model has dropped its clone.
    Inject(Arc<Vec<FlowBatch>>),
}

/// The fluid background-traffic engine: one component simulating every
/// flow-fidelity pod's traffic, plus the boundary adapter feeding ECN
/// pressure to the packet-level spines.
#[derive(Debug)]
pub struct FlowSim {
    cfg: FlowSimConfig,
    bytes_per_tick_port: u64,
    /// Pods at packet fidelity — the ones whose spine downlinks receive
    /// pressure updates.
    packet_pods: Vec<u16>,
    /// Spine switch components to publish pressure to.
    spines: Vec<ComponentId>,
    /// Active flows, structure-of-arrays: remaining bytes / source pod /
    /// destination pod, indexed together.
    rem: Vec<u64>,
    src: Vec<u16>,
    dst: Vec<u16>,
    /// Last pressure published per pod (avoid redundant spine messages).
    last_pressure: Vec<u64>,
    /// Scratch, reused across ticks.
    up_count: Vec<u32>,
    down_count: Vec<u32>,
    delivered_down: Vec<u64>,
    ticking: bool,
    // Conservation ledger.
    bytes_injected: u64,
    bytes_delivered: u64,
    bytes_rejected: u64,
    flows_started: u64,
    flows_completed: u64,
    ticks: u64,
}

impl FlowSim {
    /// A flow model for `cfg` with no spine taps attached (fine for
    /// pure-aggregate runs and property tests).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.tick` is zero: a drain would move no bytes and
    /// re-arm at the same instant forever.
    pub fn new(cfg: FlowSimConfig) -> Self {
        assert!(
            cfg.tick > SimDuration::ZERO,
            "FlowSimConfig::tick must be positive"
        );
        let pods = cfg.shape.pods as usize;
        let bytes_per_tick_port = cfg.bytes_per_tick_port();
        FlowSim {
            bytes_per_tick_port,
            packet_pods: Vec::new(),
            spines: Vec::new(),
            rem: Vec::new(),
            src: Vec::new(),
            dst: Vec::new(),
            last_pressure: vec![0; pods],
            up_count: vec![0; pods],
            down_count: vec![0; pods],
            delivered_down: vec![0; pods],
            ticking: false,
            bytes_injected: 0,
            bytes_delivered: 0,
            bytes_rejected: 0,
            flows_started: 0,
            flows_completed: 0,
            ticks: 0,
            cfg,
        }
    }

    /// Declares which pods run at packet fidelity (their spine downlinks
    /// get pressure updates) from the fabric's fidelity map.
    pub fn with_fidelity(mut self, map: &FidelityMap) -> Self {
        self.packet_pods = map.packet_pods().collect();
        self
    }

    /// Attaches the spine switches the boundary adapter publishes to.
    pub fn with_spines(mut self, spines: &[ComponentId]) -> Self {
        self.spines = spines.to_vec();
        self
    }

    /// Total bytes accepted by [`FlowSimCmd::Inject`] so far.
    pub fn bytes_injected(&self) -> u64 {
        self.bytes_injected
    }

    /// Total bytes drained to their destination pod so far.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// Bytes still owed by active flows.
    pub fn bytes_in_flight(&self) -> u64 {
        self.rem.iter().sum()
    }

    /// Bytes refused because the flow table was full.
    pub fn bytes_rejected(&self) -> u64 {
        self.bytes_rejected
    }

    /// Currently active flow records.
    pub fn active_flows(&self) -> usize {
        self.rem.len()
    }

    /// Flow records completed so far.
    pub fn flows_completed(&self) -> u64 {
        self.flows_completed
    }

    /// Drain ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    fn inject(&mut self, batch: FlowBatch, ctx: &mut Context<'_, Msg>) {
        let FlowBatch {
            src_pod,
            dst_pod,
            bytes,
            flows,
        } = batch;
        assert!(
            src_pod < self.cfg.shape.pods && dst_pod < self.cfg.shape.pods,
            "flow endpoints outside the fabric shape"
        );
        if bytes == 0 || flows == 0 {
            return;
        }
        let n = (flows as u64).min(bytes) as u32;
        let each = bytes / n as u64;
        let mut first_extra = bytes - each * n as u64;
        for _ in 0..n {
            if self.rem.len() >= self.cfg.max_flows {
                self.bytes_rejected += each + first_extra;
                first_extra = 0;
                continue;
            }
            self.rem.push(each + first_extra);
            self.src.push(src_pod);
            self.dst.push(dst_pod);
            self.bytes_injected += each + first_extra;
            self.flows_started += 1;
            first_extra = 0;
        }
        if !self.ticking && !self.rem.is_empty() {
            self.ticking = true;
            ctx.timer_after(self.cfg.tick, TICK_TOKEN);
        }
    }

    /// One drain quantum: each flow moves `min(remaining, capacity /
    /// flows on its uplink, capacity / flows on its downlink)`, an equal
    /// split per link that does not redistribute unused shares.
    fn drain(&mut self) {
        self.ticks += 1;
        self.up_count.iter_mut().for_each(|c| *c = 0);
        self.down_count.iter_mut().for_each(|c| *c = 0);
        self.delivered_down.iter_mut().for_each(|b| *b = 0);
        for i in 0..self.rem.len() {
            self.up_count[self.src[i] as usize] += 1;
            self.down_count[self.dst[i] as usize] += 1;
        }
        let pod_capacity = self.cfg.shape.spines as u64 * self.bytes_per_tick_port;
        let mut i = 0;
        while i < self.rem.len() {
            let (s, d) = (self.src[i] as usize, self.dst[i] as usize);
            let share_up = pod_capacity / self.up_count[s] as u64;
            let share_down = pod_capacity / self.down_count[d] as u64;
            let quota = self.rem[i].min(share_up).min(share_down);
            self.rem[i] -= quota;
            self.delivered_down[d] += quota;
            self.bytes_delivered += quota;
            if self.rem[i] == 0 {
                self.rem.swap_remove(i);
                self.src.swap_remove(i);
                self.dst.swap_remove(i);
                self.flows_completed += 1;
            } else {
                i += 1;
            }
        }
    }

    /// The queue-occupancy estimate for one spine downlink toward `pod`
    /// given the bytes the flow model delivered there this tick: the
    /// M/M/1 expected queue `ρ/(1-ρ)` frames, scaled to bytes, in pure
    /// integer arithmetic.
    fn pressure_for(&self, pod: usize) -> u64 {
        let spines = self.cfg.shape.spines.max(1) as u64;
        let port_bytes = self.delivered_down[pod] / spines;
        if port_bytes == 0 {
            return 0;
        }
        if port_bytes >= self.bytes_per_tick_port {
            return self.cfg.max_pressure_bytes;
        }
        let est = self.cfg.mean_frame_bytes * port_bytes / (self.bytes_per_tick_port - port_bytes);
        est.min(self.cfg.max_pressure_bytes)
    }

    /// Publishes changed pressures to every spine (one message per spine
    /// per changed pod), after the adapter delay.
    fn publish_pressure(&mut self, ctx: &mut Context<'_, Msg>, final_flush: bool) {
        for pi in 0..self.packet_pods.len() {
            let pod = self.packet_pods[pi] as usize;
            let bytes = if final_flush {
                0
            } else {
                self.pressure_for(pod)
            };
            if bytes == self.last_pressure[pod] {
                continue;
            }
            self.last_pressure[pod] = bytes;
            for &spine in &self.spines {
                ctx.send_after(
                    self.cfg.adapter_delay,
                    spine,
                    Msg::Switch(SwitchCmd::SetBackgroundLoad {
                        port: crate::msg::PortId(pod as u16),
                        bytes,
                    }),
                );
            }
        }
    }
}

impl Component<Msg> for FlowSim {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Ok(FlowSimCmd::Inject(batches)) = msg.downcast::<FlowSimCmd>() {
            for &batch in batches.iter() {
                self.inject(batch, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Msg>) {
        if token != TICK_TOKEN {
            return;
        }
        self.drain();
        if self.rem.is_empty() {
            // Idle: flush any residual pressure to zero and stop ticking
            // so `run_to_idle` terminates.
            self.publish_pressure(ctx, true);
            self.ticking = false;
        } else {
            self.publish_pressure(ctx, false);
            ctx.timer_after(self.cfg.tick, TICK_TOKEN);
        }
    }
}

impl MetricSource for FlowSim {
    fn metrics(&self, m: &mut MetricVisitor<'_>) {
        m.counter("bytes_injected", self.bytes_injected);
        m.counter("bytes_delivered", self.bytes_delivered);
        m.counter("bytes_rejected", self.bytes_rejected);
        m.counter("flows_started", self.flows_started);
        m.counter("flows_completed", self.flows_completed);
        m.counter("ticks", self.ticks);
        m.gauge("flows_active", self.rem.len() as f64);
        m.gauge("bytes_in_flight", self.bytes_in_flight() as f64);
    }
}

/// `true` when `map` needs a flow model at all (any pod below packet
/// fidelity).
pub fn needs_flowsim(map: &FidelityMap) -> bool {
    (0..map.pods()).any(|p| map.pod(p) == Fidelity::Flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::{Switch, SwitchRole};
    use dcsim::{Engine, SimTime};

    fn shape() -> FabricShape {
        FabricShape {
            hosts_per_tor: 4,
            tors_per_pod: 2,
            pods: 4,
            spines: 2,
        }
    }

    fn batch(src_pod: u16, dst_pod: u16, bytes: u64, flows: u32) -> FlowBatch {
        FlowBatch {
            src_pod,
            dst_pod,
            bytes,
            flows,
        }
    }

    fn inject_all(engine: &mut Engine<Msg>, sim: ComponentId, at: u64, batches: Vec<FlowBatch>) {
        engine.schedule(
            SimTime::from_nanos(at),
            sim,
            Msg::FlowSim(FlowSimCmd::Inject(Arc::new(batches))),
        );
    }

    fn inject(
        engine: &mut Engine<Msg>,
        sim: ComponentId,
        at: u64,
        src_pod: u16,
        dst_pod: u16,
        bytes: u64,
        flows: u32,
    ) {
        inject_all(engine, sim, at, vec![batch(src_pod, dst_pod, bytes, flows)]);
    }

    /// The flow table and the conservation ledger, everything an
    /// injection can change.
    fn state(fs: &FlowSim) -> (Vec<u64>, Vec<u16>, Vec<u16>, [u64; 6]) {
        (
            fs.rem.clone(),
            fs.src.clone(),
            fs.dst.clone(),
            [
                fs.bytes_injected,
                fs.bytes_delivered,
                fs.bytes_rejected,
                fs.flows_started,
                fs.flows_completed,
                fs.ticks,
            ],
        )
    }

    #[test]
    fn one_message_of_k_batches_is_k_one_batch_messages() {
        // Uneven splits, a zero-byte batch and a table that fills up
        // part-way, so the order of the batches shows in the result.
        let batches = vec![
            batch(1, 2, 10_000_001, 3),
            batch(3, 0, 0, 5),
            batch(0, 3, 7_777_777, 4),
            batch(2, 2, 123_456, 2),
            batch(3, 1, 9_000_000, 6),
        ];
        let run = |one_message: bool, until: u64| {
            let mut e: Engine<Msg> = Engine::new(7);
            let mut cfg = FlowSimConfig::new(shape());
            cfg.max_flows = 12;
            let sim = e.add_component(FlowSim::new(cfg));
            if one_message {
                inject_all(&mut e, sim, 0, batches.clone());
            } else {
                for &b in &batches {
                    inject_all(&mut e, sim, 0, vec![b]);
                }
            }
            e.run_until(SimTime::from_nanos(until));
            state(e.component::<FlowSim>(sim).unwrap())
        };
        for until in [0, 250_000, 10_000_000] {
            assert_eq!(run(true, until), run(false, until), "at {until} ns");
        }
        let (rem, ..) = run(true, 0);
        assert_eq!(rem.len(), 12, "the table filled");
    }

    #[test]
    fn drains_all_bytes_and_goes_idle() {
        let mut e: Engine<Msg> = Engine::new(7);
        let sim = e.add_component(FlowSim::new(FlowSimConfig::new(shape())));
        inject(&mut e, sim, 0, 1, 2, 10_000_000, 8);
        inject(&mut e, sim, 50_000, 2, 3, 5_000_000, 3);
        e.run_to_idle();
        let fs = e.component::<FlowSim>(sim).unwrap();
        assert_eq!(fs.bytes_injected(), 15_000_000);
        assert_eq!(fs.bytes_delivered(), 15_000_000);
        assert_eq!(fs.bytes_in_flight(), 0);
        assert_eq!(fs.active_flows(), 0);
        assert_eq!(fs.flows_completed(), 11);
        assert!(fs.ticks() > 0);
    }

    #[test]
    fn conservation_holds_mid_run() {
        let mut e: Engine<Msg> = Engine::new(7);
        let sim = e.add_component(FlowSim::new(FlowSimConfig::new(shape())));
        // Far more than one tick's capacity, so bytes stay in flight.
        inject(&mut e, sim, 0, 0, 1, 400_000_000, 16);
        e.run_until(SimTime::from_nanos(250_000));
        let fs = e.component::<FlowSim>(sim).unwrap();
        assert!(fs.bytes_in_flight() > 0, "drain finished too fast");
        assert_eq!(
            fs.bytes_injected(),
            fs.bytes_delivered() + fs.bytes_in_flight()
        );
    }

    #[test]
    fn fair_share_splits_contended_downlink() {
        // Two source pods pour into one destination pod; neither can
        // exceed half the destination capacity once both are active.
        let mut e: Engine<Msg> = Engine::new(7);
        let cfg = FlowSimConfig::new(shape());
        let cap = cfg.bytes_per_tick_port() * shape().spines as u64;
        let sim = e.add_component(FlowSim::new(cfg));
        inject(&mut e, sim, 0, 0, 2, cap * 4, 1);
        inject(&mut e, sim, 0, 1, 2, cap * 4, 1);
        e.run_to_idle();
        let fs = e.component::<FlowSim>(sim).unwrap();
        // 8 pod-ticks of demand through one downlink: ≥ 8 ticks to drain.
        assert!(fs.ticks() >= 8, "ticks {}", fs.ticks());
        assert_eq!(fs.bytes_delivered(), cap * 8);
    }

    #[test]
    fn rejects_beyond_max_flows() {
        let mut e: Engine<Msg> = Engine::new(7);
        let mut cfg = FlowSimConfig::new(shape());
        cfg.max_flows = 2;
        let sim = e.add_component(FlowSim::new(cfg));
        inject(&mut e, sim, 0, 0, 1, 4_000, 4);
        e.run_to_idle();
        let fs = e.component::<FlowSim>(sim).unwrap();
        assert_eq!(fs.bytes_injected(), 2_000);
        assert_eq!(fs.bytes_rejected(), 2_000);
        assert_eq!(fs.bytes_delivered(), 2_000);
    }

    #[test]
    fn pressure_reaches_spines_and_clears() {
        let mut e: Engine<Msg> = Engine::new(7);
        let shape = shape();
        let spine = e.add_component(Switch::new(
            SwitchRole::Spine { index: 0 },
            shape,
            crate::switch::SwitchConfig::default(),
        ));
        let map = FidelityMap::packet_island(4, 1);
        let cfg = FlowSimConfig::new(shape);
        let cap = cfg.bytes_per_tick_port() * shape.spines as u64;
        let sim = e.add_component(FlowSim::new(cfg).with_fidelity(&map).with_spines(&[spine]));
        // Saturate packet pod 0's downlink for several ticks.
        inject(&mut e, sim, 0, 2, 0, cap * 4, 4);
        e.run_until(SimTime::from_nanos(150_000));
        let sw = e.component::<Switch>(spine).unwrap();
        assert!(
            sw.background_bytes(crate::msg::PortId(0)) > 0,
            "pressure should be visible mid-drain"
        );
        e.run_to_idle();
        let sw = e.component::<Switch>(spine).unwrap();
        assert_eq!(
            sw.background_bytes(crate::msg::PortId(0)),
            0,
            "pressure clears when the background drains"
        );
        // Flow pods get no pressure updates at all.
        assert_eq!(sw.background_bytes(crate::msg::PortId(2)), 0);
    }

    /// A zero tick drains nothing and re-arms at the same instant, so
    /// simulated time would never pass it.
    #[test]
    #[should_panic(expected = "FlowSimConfig::tick")]
    fn zero_tick_is_rejected() {
        let mut cfg = FlowSimConfig::new(shape());
        cfg.tick = SimDuration::ZERO;
        FlowSim::new(cfg);
    }

    #[test]
    fn needs_flowsim_only_for_hybrid_maps() {
        assert!(!needs_flowsim(&FidelityMap::all_packet(4)));
        assert!(needs_flowsim(&FidelityMap::packet_island(4, 1)));
    }
}
