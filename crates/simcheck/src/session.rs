//! Differential testing of the LTL retransmission protocol.
//!
//! Two [`shell::ltl::LtlEngine`]s exchange messages across a scripted lossy
//! channel, all three driven as ordinary [`dcsim`] components; each engine
//! is pumped by [`shell::ltl::Endpoint`], the pump the shell runs. A
//! [`dcsim::Observer`] attached to the engine drains each component's
//! protocol trace after *every* event, feeds it to a pure reference model
//! per direction — one [`LtlRefModel`] for either transport mode — and
//! cross-checks the real engines' sequence numbers and exact sequence
//! lists against the model state. Any divergence — out-of-window
//! transmission, wrong cumulative ack, an inexact SACK bitmap, duplicated
//! or reordered delivery, spurious connection failure — is reported as a
//! [`Violation`] pinned to the exact event index where it appeared.

use crate::json::{array, as_object, get_array, get_str, get_u32, get_u64, uint};
use crate::repro::{fault_event_from_value, fault_event_to_value};
use crate::sr_model::LtlRefModel;
use crate::{Case, Outcome, Violation};
use bytes::Bytes;
use catapult::chaos::{ChaosTargets, FaultConfig, FaultEvent, FaultKind, FaultPlan};
use dcnet::{Msg, NetEvent, NodeAddr, PortId};
use dcsim::{
    Component, ComponentId, Context, Engine, EventRecord, Observer, SimDuration, SimRng, SimTime,
};
use serde::Value;
use shell::ltl::{Endpoint, FrameKind, LtlConfig, LtlEngine, LtlEvent, LtlFrame, LtlMode};
use std::collections::VecDeque;

const TIMER_LTL: u64 = 1;

/// One-way channel latency.
const CHANNEL_DELAY: SimDuration = SimDuration::from_nanos(1_200);
/// Outage length modelled for a bad-image load in a session.
const BAD_IMAGE_DOWN: SimDuration = SimDuration::from_micros(800);

/// Command scheduled at a node: submit one message on its send connection.
struct SendCmd {
    counter: u64,
    len: usize,
}

/// One observable protocol action at a node, in occurrence order.
#[derive(Debug, Clone, Copy)]
enum NodeEvent {
    Submitted {
        first_seq: u32,
        frames: u32,
        counter: u64,
    },
    DataTx {
        seq: u32,
    },
    AckTx {
        seq: u32,
    },
    NackTx {
        seq: u32,
    },
    SackTx {
        seq: u32,
        bits: u64,
    },
    DataRx {
        seq: u32,
        last_frag: bool,
    },
    AckRx {
        seq: u32,
    },
    SackRx {
        seq: u32,
        bits: u64,
    },
    NackRx,
    Delivered {
        counter: u64,
    },
    ConnFailed,
}

/// An engine upcall as the oracle logs it: a delivery by the counter in
/// its payload head.
impl From<LtlEvent> for NodeEvent {
    fn from(ev: LtlEvent) -> NodeEvent {
        match ev {
            LtlEvent::Deliver { payload, .. } => {
                let mut head = [0u8; 8];
                let n = payload.len().min(8);
                head[..n].copy_from_slice(&payload[..n]);
                NodeEvent::Delivered {
                    counter: u64::from_le_bytes(head),
                }
            }
            LtlEvent::ConnectionFailed { .. } => NodeEvent::ConnFailed,
        }
    }
}

/// A session endpoint: one real LTL engine driven by the shell's own
/// [`Endpoint`], logging every observable protocol action for the oracle.
struct LtlNode {
    ltl: Endpoint<TIMER_LTL>,
    mtu: usize,
    peer_channel: ComponentId,
    log: Vec<NodeEvent>,
}

impl LtlNode {
    fn new(ltl: LtlEngine, mtu: usize, peer_channel: ComponentId) -> LtlNode {
        LtlNode {
            ltl: Endpoint::new(ltl),
            mtu,
            peer_channel,
            log: Vec::new(),
        }
    }

    fn pump(&mut self, ctx: &mut Context<'_, Msg>) {
        let (log, peer) = (&mut self.log, self.peer_channel);
        self.ltl.pump(ctx, |ctx, pkt, _| {
            if let Ok(frame) = LtlFrame::decode(&pkt.payload) {
                let ev = match frame.kind {
                    FrameKind::Data => Some(NodeEvent::DataTx { seq: frame.seq }),
                    FrameKind::Ack => Some(NodeEvent::AckTx { seq: frame.seq }),
                    FrameKind::Nack => Some(NodeEvent::NackTx { seq: frame.seq }),
                    FrameKind::Sack => frame.sack_bits().map(|bits| NodeEvent::SackTx {
                        seq: frame.seq,
                        bits,
                    }),
                    _ => None,
                };
                log.extend(ev);
            }
            ctx.send(peer, Msg::packet(pkt, PortId(0)));
        });
    }
}

impl Component<Msg> for LtlNode {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::Net(NetEvent::Packet { pkt, .. }) => {
                if let Ok(frame) = LtlFrame::decode(&pkt.payload) {
                    match frame.kind {
                        FrameKind::Data => self.log.push(NodeEvent::DataRx {
                            seq: frame.seq,
                            last_frag: frame.last_frag,
                        }),
                        FrameKind::Ack => self.log.push(NodeEvent::AckRx { seq: frame.seq }),
                        FrameKind::Nack => self.log.push(NodeEvent::NackRx),
                        FrameKind::Sack => {
                            if let Some(bits) = frame.sack_bits() {
                                self.log.push(NodeEvent::SackRx {
                                    seq: frame.seq,
                                    bits,
                                });
                            }
                        }
                        _ => {}
                    }
                }
                let log = &mut self.log;
                self.ltl.on_packet(&pkt, ctx, |_, ev| log.push(ev.into()));
            }
            Msg::Net(_)
            | Msg::Egress { .. }
            | Msg::LtlRx(_)
            | Msg::LtlSend(_)
            | Msg::LtlDeliver(_)
            | Msg::FlowSim(_)
            | Msg::Switch(_) => {}
            boxed => {
                if let Ok(cmd) = boxed.downcast::<SendCmd>() {
                    let first_seq = self.ltl.engine().send_next_seq(0).unwrap_or_default();
                    let frames = cmd.len.div_ceil(self.mtu) as u32;
                    let mut payload = vec![0u8; cmd.len];
                    let head = cmd.counter.to_le_bytes();
                    let n = cmd.len.min(8);
                    payload[..n].copy_from_slice(&head[..n]);
                    let sent = self
                        .ltl
                        .engine_mut()
                        .send_message(0, 0, Bytes::from(payload));
                    if sent.is_ok() {
                        self.log.push(NodeEvent::Submitted {
                            first_seq,
                            frames,
                            counter: cmd.counter,
                        });
                    }
                }
            }
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, Msg>) {
        let log = &mut self.log;
        self.ltl.on_timer(ctx, |_, ev| log.push(ev.into()));
        self.pump(ctx);
    }
}

/// A frame the channel dropped, charged to a protocol direction.
#[derive(Debug, Clone, Copy)]
struct DropEntry {
    toward_b: bool,
    kind: FrameKind,
}

/// A "corrupt the next N frames toward `node`" rule, armed at `from`.
struct CorruptRule {
    from: SimTime,
    node: NodeAddr,
    remaining: u32,
}

/// The scripted lossy channel between the two nodes: fixed forward
/// latency plus drop windows, corruption bursts and i.i.d. loss windows
/// derived from a [`FaultPlan`].
struct Channel {
    node_a: ComponentId,
    node_b: ComponentId,
    b_addr: NodeAddr,
    /// `(start, end, endpoint)`: frames with this endpoint as source or
    /// destination are lost inside the window.
    windows: Vec<(SimTime, SimTime, NodeAddr)>,
    corrupt: Vec<CorruptRule>,
    /// `(start, end, endpoint, rate_ppm)`: frames *sent by* this endpoint
    /// drop i.i.d. at `rate_ppm` inside the window (a lossy egress).
    lossy: Vec<(SimTime, SimTime, NodeAddr, u32)>,
    /// Seeded stream driving the i.i.d. lossy-window draws; per-frame
    /// draws are deterministic because event order is.
    rng: SimRng,
    log: Vec<DropEntry>,
}

impl Channel {
    fn from_plan(
        plan: &FaultPlan,
        seed: u64,
        a_addr: NodeAddr,
        b_addr: NodeAddr,
        node_a: ComponentId,
        node_b: ComponentId,
    ) -> Channel {
        let mut windows = Vec::new();
        let mut corrupt = Vec::new();
        let mut lossy = Vec::new();
        let rack_addr = |pod: u16, tor: u16| {
            if a_addr.pod == pod && a_addr.tor == tor {
                Some(a_addr)
            } else if b_addr.pod == pod && b_addr.tor == tor {
                Some(b_addr)
            } else {
                None
            }
        };
        for FaultEvent { at, kind } in &plan.events {
            match *kind {
                FaultKind::LinkFlap { node, down } => windows.push((*at, *at + down, node)),
                FaultKind::TorCrash { pod, tor, reboot } => {
                    if let Some(node) = rack_addr(pod, tor) {
                        windows.push((*at, *at + reboot, node));
                    }
                }
                FaultKind::CorruptBurst { node, frames } => corrupt.push(CorruptRule {
                    from: *at,
                    node,
                    remaining: frames,
                }),
                FaultKind::FpgaHang { node, duration } => windows.push((*at, *at + duration, node)),
                FaultKind::BadImage { node } => windows.push((*at, *at + BAD_IMAGE_DOWN, node)),
                FaultKind::LossyLink {
                    node,
                    rate_ppm,
                    duration,
                } => lossy.push((*at, *at + duration, node, rate_ppm)),
                FaultKind::HostStall { .. } => {}
            }
        }
        Channel {
            node_a,
            node_b,
            b_addr,
            windows,
            corrupt,
            lossy,
            rng: SimRng::seed_from(seed ^ 0x1055_1E57),
            log: Vec::new(),
        }
    }
}

impl Component<Msg> for Channel {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let Msg::Net(NetEvent::Packet { pkt, .. }) = msg else {
            return;
        };
        let now = ctx.now();
        let kind = match LtlFrame::decode(&pkt.payload) {
            Ok(frame) => frame.kind,
            Err(_) => return,
        };
        let in_window = self
            .windows
            .iter()
            .any(|&(start, end, ep)| now >= start && now < end && (ep == pkt.src || ep == pkt.dst));
        let corrupted = !in_window
            && self.corrupt.iter_mut().any(|rule| {
                if now >= rule.from && rule.node == pkt.dst && rule.remaining > 0 {
                    rule.remaining -= 1;
                    true
                } else {
                    false
                }
            });
        let mut lossy_drop = false;
        if !in_window && !corrupted {
            for &(start, end, ep, rate_ppm) in &self.lossy {
                if now >= start && now < end && ep == pkt.src {
                    lossy_drop = self.rng.chance(rate_ppm as f64 / 1e6);
                    break;
                }
            }
        }
        if in_window || corrupted || lossy_drop {
            self.log.push(DropEntry {
                toward_b: pkt.dst == self.b_addr,
                kind,
            });
            return;
        }
        let dest = if pkt.dst == self.b_addr {
            self.node_b
        } else {
            self.node_a
        };
        ctx.send_after(CHANNEL_DELAY, dest, Msg::packet(pkt, PortId(0)));
    }
}

/// The differential oracle: drains component traces after every event,
/// steps the per-direction reference models, and compares engine views.
/// Endpoint A is index 0 and B index 1 throughout.
struct SessionOracle {
    nodes: [ComponentId; 2],
    chan: ComponentId,
    /// `models[s]` is the direction endpoint `s` sends data on.
    models: [LtlRefModel; 2],
    /// How much of each endpoint's log, and of the channel's, is drained.
    cursors: [usize; 2],
    cur_chan: usize,
    /// `due[s]`: counters of messages the model completed at endpoint `s`
    /// but the node has not yet logged as delivered (delivery is logged
    /// in the same event).
    due: [VecDeque<u64>; 2],
    violations: Vec<Violation>,
    checks: u64,
}

impl SessionOracle {
    fn record(&mut self, at: SimTime, check: &'static str, result: Result<(), String>) {
        self.checks += 1;
        if let Err(detail) = result {
            // A single divergence re-fires on every later check; the
            // first few entries carry all the signal.
            if self.violations.len() < 32 {
                self.violations.push(Violation { at, check, detail });
            }
        }
    }

    /// Applies one node-local trace entry, logged by endpoint `side`, to
    /// the direction models.
    fn apply(&mut self, at: SimTime, side: usize, ev: NodeEvent) {
        // `out` is the direction this node sends data on; `inb` the one
        // it receives data on.
        let (out, inb) = (side, 1 - side);
        match ev {
            NodeEvent::Submitted {
                first_seq,
                frames,
                counter,
            } => {
                let r = self.models[out].on_submit(first_seq, frames, counter);
                self.record(at, "ltl.submit", r);
            }
            NodeEvent::DataTx { seq } => {
                let r = self.models[out].on_data_tx(seq);
                self.record(at, "ltl.data_tx", r);
            }
            NodeEvent::AckRx { seq } => {
                let r = self.models[out].on_ack_rx(seq, None);
                self.record(at, "ltl.ack_rx", r);
            }
            NodeEvent::SackRx { seq, bits } => {
                let r = self.models[out].on_ack_rx(seq, Some(bits));
                self.record(at, "ltl.sack_rx", r);
            }
            NodeEvent::NackRx => {}
            NodeEvent::ConnFailed => {
                let r = self.models[out].on_conn_failed();
                self.record(at, "ltl.conn_failed", r);
            }
            NodeEvent::DataRx { seq, last_frag } => {
                match self.models[inb].on_data_rx(seq, last_frag) {
                    Ok(completed) => self.due[side].extend(completed),
                    Err(detail) => self.record(at, "ltl.data_rx", Err(detail)),
                }
            }
            NodeEvent::AckTx { seq } => {
                let r = self.models[inb].on_ack_tx(seq, None);
                self.record(at, "ltl.ack_tx", r);
            }
            NodeEvent::SackTx { seq, bits } => {
                let r = self.models[inb].on_ack_tx(seq, Some(bits));
                self.record(at, "ltl.sack_tx", r);
            }
            NodeEvent::NackTx { seq } => {
                let r = self.models[inb].on_nack_tx(seq);
                self.record(at, "ltl.nack_tx", r);
            }
            NodeEvent::Delivered { counter } => {
                let r = match self.due[side].pop_front() {
                    Some(expect) => self.models[inb].on_deliver(counter, expect),
                    None => Err(format!(
                        "message with counter {counter} delivered but model completed none"
                    )),
                };
                self.record(at, "ltl.deliver", r);
            }
        }
    }

    /// Compares each direction's model with its sender's and its
    /// receiver's view of the connection.
    fn compare_views(&mut self, at: SimTime, engine: &Engine<Msg>) {
        for dir in 0..2 {
            let (Some(sender), Some(receiver)) = (
                engine.component::<LtlNode>(self.nodes[dir]),
                engine.component::<LtlNode>(self.nodes[1 - dir]),
            ) else {
                return;
            };
            let model = &self.models[dir];
            let (sender, receiver) = (sender.ltl.engine(), receiver.ltl.engine());
            let unacked = sender.send_unacked_seqs(0);
            let buffered = receiver.recv_buffered_seqs(0);
            let rs = (sender.send_next_seq(0))
                .map(|next| model.check_sender(next, unacked.as_deref().unwrap_or(&[])));
            let rr = (receiver.recv_expected_seq(0))
                .map(|exp| model.check_receiver(exp, buffered.as_deref().unwrap_or(&[])));
            if let Some(r) = rs {
                self.record(at, "ltl.sender_state", r);
            }
            if let Some(r) = rr {
                self.record(at, "ltl.receiver_state", r);
            }
        }
    }
}

impl Observer<Msg> for SessionOracle {
    fn after_event(&mut self, event: &EventRecord, engine: &Engine<Msg>) {
        // Drain whatever new trace entries this event produced. Only the
        // dispatched component's log can have grown.
        for side in 0..2 {
            let Some(node) = engine.component::<LtlNode>(self.nodes[side]) else {
                continue;
            };
            let fresh: Vec<NodeEvent> = node.log[self.cursors[side]..].to_vec();
            self.cursors[side] = node.log.len();
            for ev in fresh {
                self.apply(event.at, side, ev);
            }
        }
        if let Some(chan) = engine.component::<Channel>(self.chan) {
            let fresh: Vec<DropEntry> = chan.log[self.cur_chan..].to_vec();
            self.cur_chan = chan.log.len();
            for drop in fresh {
                // A lost data frame stalls its own direction; a lost
                // ack/nack stalls the direction it acknowledges.
                let data_toward_b = matches!(drop.kind, FrameKind::Data) == drop.toward_b;
                self.models[usize::from(!data_toward_b)].on_drop();
            }
        }
        self.compare_views(event.at, engine);
    }
}

/// Everything parameterising one differential session run.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Engine seed (schedules, jitter).
    pub seed: u64,
    /// Tie-break salt for same-timestamp event ordering (0 = FIFO).
    pub salt: u64,
    /// Messages submitted in each direction.
    pub msgs_each_way: u32,
    /// Maximum message size in MTU-sized frames.
    pub max_msg_frames: u32,
    /// Nominal run length; sends and faults land inside it.
    pub horizon: SimDuration,
    /// Enable NACK fast retransmit.
    pub nack: bool,
    /// Transport mode both endpoints run (and the oracle models).
    pub mode: LtlMode,
    /// Bug injection: silently lose this many retransmissions inside the
    /// real engine (0 = healthy).
    pub lose_retransmits: u32,
    /// Bug injection (selective repeat): drop the highest bit from this
    /// many non-empty SACK bitmaps at endpoint A (0 = healthy). The
    /// protocol self-heals around it, so only the exact-bitmap oracle
    /// can catch it.
    pub omit_sacks: u32,
    /// The fault schedule shaping the channel.
    pub plan: FaultPlan,
}

impl SessionSpec {
    /// Addresses of the two session endpoints (also the fault-plan
    /// targets): racks 0 and 1 of pod 0.
    pub fn endpoints() -> (NodeAddr, NodeAddr) {
        (NodeAddr::new(0, 0, 0), NodeAddr::new(0, 1, 0))
    }

    /// The fault-plan targets for a session.
    pub fn targets() -> ChaosTargets {
        let (a, b) = Self::endpoints();
        ChaosTargets {
            accelerators: vec![a, b],
            clients: Vec::new(),
            racks: vec![(0, 0), (0, 1)],
        }
    }
}

/// The fault mix of the fuzzed fault-plan cases (sessions and cluster
/// scenarios): the standard chaos mix at `rate` faults per horizon, with
/// outage lengths compressed to their millisecond timescale.
pub fn fault_config(horizon: SimDuration, rate: f64) -> FaultConfig {
    FaultConfig {
        flap_down: SimDuration::from_micros(300),
        tor_reboot: SimDuration::from_micros(900),
        hang_duration: SimDuration::from_micros(250),
        burst_frames: 3,
        ..FaultConfig::with_rate(horizon, rate)
    }
}

impl Case for SessionSpec {
    const KIND: &'static str = "session";
    type Event = FaultEvent;

    /// Generates the spec for one fuzzing seed. Odd seeds run with a
    /// salted tie-break order, exercising the schedule-perturbation
    /// half of the determinism contract.
    fn generate(seed: u64) -> SessionSpec {
        let horizon = SimDuration::from_millis(4);
        let plan = FaultPlan::generate(seed, &Self::targets(), &fault_config(horizon, 1.5));
        SessionSpec {
            seed,
            salt: if seed % 2 == 1 {
                seed ^ 0x9E37_79B9_7F4A_7C15
            } else {
                0
            },
            msgs_each_way: 12,
            max_msg_frames: 4,
            horizon,
            nack: seed % 4 < 2,
            mode: LtlMode::GoBackN,
            lose_retransmits: 0,
            omit_sacks: 0,
            plan,
        }
    }

    fn events(&self) -> &[FaultEvent] {
        &self.plan.events
    }

    fn with_events(&self, events: Vec<FaultEvent>) -> SessionSpec {
        SessionSpec {
            plan: FaultPlan { events },
            ..self.clone()
        }
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            uint("seed", self.seed),
            uint("salt", self.salt),
            ("transport".into(), Value::Str(self.mode.name().into())),
            uint("lose_retransmits", self.lose_retransmits),
            uint("omit_sacks", self.omit_sacks),
            array("events", &self.plan.events, fault_event_to_value),
        ])
    }

    /// Everything the file does not carry (message count and sizes,
    /// horizon, NACK) is regenerated from the seed.
    fn from_value(value: &Value) -> Result<SessionSpec, String> {
        let obj = as_object(value, "repro")?;
        let transport = get_str(obj, "transport")?;
        Ok(SessionSpec {
            salt: get_u64(obj, "salt")?,
            mode: LtlMode::parse(transport)
                .ok_or_else(|| format!("unknown transport mode {transport:?}"))?,
            lose_retransmits: get_u32(obj, "lose_retransmits")?,
            omit_sacks: get_u32(obj, "omit_sacks")?,
            plan: FaultPlan {
                events: get_array(obj, "events", fault_event_from_value)?,
            },
            ..SessionSpec::generate(get_u64(obj, "seed")?)
        })
    }

    /// Runs one differential session to quiescence.
    fn run(&self) -> Outcome {
        let (a_addr, b_addr) = SessionSpec::endpoints();
        let mut engine: Engine<Msg> = Engine::new(self.seed);
        engine.set_tie_break_salt(self.salt);

        let base = self.horizon; // plan horizon; sends land in its first 55%
        let cfg = LtlConfig::default()
            .without_dcqcn()
            .with_nack_enabled(self.nack)
            .with_mode(self.mode);
        let mtu = cfg.mtu_payload;

        let mut ltl_a = LtlEngine::new(a_addr, cfg.clone());
        let mut ltl_b = LtlEngine::new(b_addr, cfg);
        let a_recv = ltl_a.add_recv(b_addr);
        let b_recv = ltl_b.add_recv(a_addr);
        ltl_a.add_send(b_addr, b_recv);
        ltl_b.add_send(a_addr, a_recv);
        if self.lose_retransmits > 0 {
            ltl_a.debug_lose_retransmits(self.lose_retransmits);
        }
        if self.omit_sacks > 0 {
            ltl_a.debug_omit_sacks(self.omit_sacks);
        }

        let chan_id = engine.next_component_id();
        let node_a_id = ComponentId::from_raw(1);
        let node_b_id = ComponentId::from_raw(2);
        let chan = Channel::from_plan(&self.plan, self.seed, a_addr, b_addr, node_a_id, node_b_id);
        assert_eq!(engine.add_component(chan), chan_id);
        assert_eq!(
            engine.add_component(LtlNode::new(ltl_a, mtu, chan_id)),
            node_a_id
        );
        assert_eq!(
            engine.add_component(LtlNode::new(ltl_b, mtu, chan_id)),
            node_b_id
        );

        // Schedule submissions from a dedicated stream (independent of the
        // engine's own RNG so observers or jitter never shift the workload).
        let mut rng = SimRng::seed_from(self.seed ^ 0x5E55_1017);
        let window = base.as_nanos() as f64 * 0.55;
        for (node, n) in [
            (node_a_id, self.msgs_each_way),
            (node_b_id, self.msgs_each_way),
        ] {
            for counter in 0..n {
                let at = SimTime::from_nanos((rng.uniform() * window) as u64);
                let frames = 1 + rng.index(self.max_msg_frames as usize);
                let len = (frames - 1) * mtu + 1 + rng.index(mtu);
                engine.schedule(
                    at,
                    node,
                    Msg::custom(SendCmd {
                        counter: counter as u64,
                        len,
                    }),
                );
            }
        }

        engine.set_observer(Box::new(SessionOracle {
            nodes: [node_a_id, node_b_id],
            chan: chan_id,
            models: [LtlRefModel::new(self.mode), LtlRefModel::new(self.mode)],
            cursors: [0; 2],
            cur_chan: 0,
            due: Default::default(),
            violations: Vec::new(),
            checks: 0,
        }));

        let events = engine.run_to_idle();
        let end = engine.now();

        let oracle = engine
            .observer_as::<SessionOracle>()
            .expect("oracle attached above");
        let mut violations = oracle.violations.clone();
        let mut checks = oracle.checks;
        for (model, name) in oracle.models.iter().zip(["a_to_b", "b_to_a"]) {
            checks += 1;
            if let Err(detail) = model.check_complete() {
                violations.push(Violation {
                    at: end,
                    check: "ltl.complete",
                    detail: format!("{name}: {detail}"),
                });
            }
        }
        let delivered = oracle.models.iter().map(|m| m.delivered()).sum();
        Outcome {
            violations,
            events,
            checks,
            delivered,
            decisions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed's spec in selective-repeat mode (the sweep runs every
    /// seed in both modes).
    fn selective_repeat(seed: u64) -> SessionSpec {
        SessionSpec {
            mode: LtlMode::SelectiveRepeat,
            ..SessionSpec::generate(seed)
        }
    }

    #[test]
    fn clean_session_has_no_violations() {
        let mut spec = SessionSpec::generate(2); // even seed: FIFO order
        spec.plan = FaultPlan::default();
        let out = spec.run();
        assert_eq!(out.violations, Vec::new());
        assert_eq!(out.delivered, 2 * spec.msgs_each_way as u64);
        assert!(out.checks > 0);
    }

    #[test]
    fn faulty_channel_still_satisfies_the_oracle() {
        for seed in 0..8 {
            let spec = SessionSpec::generate(seed);
            let out = spec.run();
            assert_eq!(out.violations, Vec::new(), "seed {seed}");
        }
    }

    #[test]
    fn session_is_deterministic_per_seed() {
        let spec = SessionSpec::generate(5);
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.checks, b.checks);
    }

    #[test]
    fn clean_selective_repeat_session_has_no_violations() {
        let mut spec = selective_repeat(2);
        spec.plan = FaultPlan::default();
        let out = spec.run();
        assert_eq!(out.violations, Vec::new());
        assert_eq!(out.delivered, 2 * spec.msgs_each_way as u64);
        assert!(out.checks > 0);
    }

    #[test]
    fn faulty_channel_still_satisfies_the_selective_repeat_oracle() {
        for seed in 0..8 {
            let spec = selective_repeat(seed);
            let out = spec.run();
            assert_eq!(out.violations, Vec::new(), "seed {seed}");
        }
    }

    #[test]
    fn selective_repeat_session_is_deterministic_per_seed() {
        let spec = selective_repeat(5);
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.checks, b.checks);
    }

    #[test]
    fn short_messages_carry_their_counter() {
        // A 1-7 byte message keeps only the first bytes of the counter,
        // so those must be its low bytes: big-endian heads delivered
        // counter 0 for every short message on these two seeds.
        for spec in [SessionSpec::generate(65), selective_repeat(227)] {
            assert_eq!(spec.run().violations, Vec::new(), "{:?}", spec.mode);
        }
    }

    #[test]
    fn injected_sack_omission_is_caught() {
        // Dropping a bit from the SACK bitmap never loses data — the
        // sender simply retransmits the frame — so a delivery-only oracle
        // is blind to it. The exact-bitmap check must catch it on any
        // seed whose channel actually reorders or drops data (the bitmap
        // is only non-empty when the reassembly buffer is).
        let mut caught = false;
        for seed in 0..32 {
            let mut spec = selective_repeat(seed);
            spec.omit_sacks = 4;
            if !spec.run().violations.is_empty() {
                caught = true;
                break;
            }
        }
        assert!(caught, "sack-omission bug evaded the oracle on 32 seeds");
    }

    #[test]
    fn injected_retransmit_loss_is_caught() {
        // Losing a retransmission inside the engine drops the window base
        // from the real in-flight list while the model still holds it,
        // the moment the entry disappears. It needs a seed whose plan
        // actually forces a timeout; sweep a few.
        let mut caught = false;
        for seed in 0..32 {
            let mut spec = SessionSpec::generate(seed);
            spec.lose_retransmits = 1;
            if !spec.run().violations.is_empty() {
                caught = true;
                break;
            }
        }
        assert!(caught, "bug injection evaded the oracle on 32 seeds");
    }
}
