//! Differential testing of the LTL retransmission protocol.
//!
//! Two [`shell::ltl::LtlEngine`]s exchange messages across a scripted lossy
//! channel, all three driven as ordinary [`dcsim`] components. A
//! [`dcsim::Observer`] attached to the engine drains each component's
//! protocol trace after *every* event, feeds it to a pure reference model
//! per direction — [`GbnRefModel`] for go-back-N sessions,
//! [`SrRefModel`] for selective-repeat ones — and cross-checks the real
//! engines' introspection views against the model state. Any divergence —
//! out-of-window transmission, wrong cumulative ack, an inexact SACK
//! bitmap, duplicated or reordered delivery, spurious connection
//! failure — is reported as a [`Violation`] pinned to the exact event
//! index where it appeared.

use crate::model::GbnRefModel;
use crate::sr_model::SrRefModel;
use crate::Violation;
use bytes::Bytes;
use catapult::chaos::{ChaosTargets, FaultConfig, FaultEvent, FaultKind, FaultPlan};
use dcnet::{Msg, NetEvent, NodeAddr, PortId};
use dcsim::{
    Component, ComponentId, Context, Engine, EventRecord, Observer, SimDuration, SimRng, SimTime,
};
use shell::ltl::{
    FrameKind, LtlConfig, LtlEngine, LtlEvent, LtlFrame, LtlMode, Poll, RecvConnView, SendConnView,
};
use std::collections::VecDeque;

const TIMER_TICK: u64 = 1;
const TIMER_POLL: u64 = 2;

/// Retransmission-timer granularity of the session nodes.
const TICK: SimDuration = SimDuration::from_micros(10);
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

/// A session endpoint: one real LTL engine pumped the same way the Shell
/// pumps its engine (poll loop + retransmission tick), logging every
/// observable protocol action for the oracle.
struct LtlNode {
    ltl: LtlEngine,
    mtu: usize,
    peer_channel: ComponentId,
    tick_armed: bool,
    poll_armed: bool,
    log: Vec<NodeEvent>,
}

impl LtlNode {
    fn new(ltl: LtlEngine, mtu: usize, peer_channel: ComponentId) -> LtlNode {
        LtlNode {
            ltl,
            mtu,
            peer_channel,
            tick_armed: false,
            poll_armed: false,
            log: Vec::new(),
        }
    }

    fn log_ltl_events(&mut self, events: Vec<LtlEvent>) {
        for ev in events {
            match ev {
                LtlEvent::Deliver { payload, .. } => {
                    let mut head = [0u8; 8];
                    let n = payload.len().min(8);
                    head[..n].copy_from_slice(&payload[..n]);
                    self.log.push(NodeEvent::Delivered {
                        counter: u64::from_be_bytes(head),
                    });
                }
                LtlEvent::ConnectionFailed { .. } => self.log.push(NodeEvent::ConnFailed),
            }
        }
    }

    fn pump(&mut self, ctx: &mut Context<'_, Msg>) {
        loop {
            match self.ltl.poll(ctx.now()) {
                Poll::Ready(pkt) => {
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
                        if let Some(ev) = ev {
                            self.log.push(ev);
                        }
                    }
                    ctx.send(self.peer_channel, Msg::packet(pkt, PortId(0)));
                }
                Poll::Later(t) => {
                    if !self.poll_armed {
                        self.poll_armed = true;
                        ctx.timer_after(t.saturating_since(ctx.now()), TIMER_POLL);
                    }
                    break;
                }
                Poll::Empty => break,
            }
        }
    }

    fn ensure_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.tick_armed && self.ltl.in_flight() > 0 {
            self.tick_armed = true;
            ctx.timer_after(TICK, TIMER_TICK);
        }
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
                let events = self.ltl.on_packet(&pkt, ctx.now());
                self.log_ltl_events(events);
            }
            Msg::Net(_) | Msg::Egress { .. } | Msg::LtlRx(_) => {}
            Msg::Custom(any) => {
                if let Ok(cmd) = any.downcast::<SendCmd>() {
                    let first_seq = self
                        .ltl
                        .send_conn_view(0)
                        .map(|v| v.next_seq)
                        .unwrap_or_default();
                    let frames = cmd.len.div_ceil(self.mtu) as u32;
                    let mut payload = vec![0u8; cmd.len];
                    let head = cmd.counter.to_be_bytes();
                    let n = cmd.len.min(8);
                    payload[..n].copy_from_slice(&head[..n]);
                    if self.ltl.send_message(0, 0, Bytes::from(payload)).is_ok() {
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
        self.ensure_tick(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Msg>) {
        match token {
            TIMER_TICK => {
                self.tick_armed = false;
                let events = self.ltl.on_tick(ctx.now());
                self.log_ltl_events(events);
            }
            TIMER_POLL => self.poll_armed = false,
            _ => {}
        }
        self.pump(ctx);
        self.ensure_tick(ctx);
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

/// A per-direction reference model dispatching on the session's
/// transport mode. Mode mismatches are themselves violations: a
/// selective-repeat endpoint must never emit a plain cumulative ACK and
/// a go-back-N endpoint must never emit a SACK.
enum RefModel {
    Gbn(GbnRefModel),
    Sr(SrRefModel),
}

impl RefModel {
    fn new(mode: LtlMode, window: u32) -> RefModel {
        match mode {
            LtlMode::GoBackN => RefModel::Gbn(GbnRefModel::new()),
            LtlMode::SelectiveRepeat => RefModel::Sr(SrRefModel::new(window)),
        }
    }

    fn delivered(&self) -> u64 {
        match self {
            RefModel::Gbn(m) => m.delivered(),
            RefModel::Sr(m) => m.delivered(),
        }
    }

    fn on_drop(&mut self) {
        match self {
            RefModel::Gbn(m) => m.on_drop(),
            RefModel::Sr(m) => m.on_drop(),
        }
    }

    fn on_submit(&mut self, first_seq: u32, frames: u32, counter: u64) -> Result<(), String> {
        match self {
            RefModel::Gbn(m) => m.on_submit(first_seq, frames, counter),
            RefModel::Sr(m) => m.on_submit(first_seq, frames, counter),
        }
    }

    fn on_data_tx(&mut self, seq: u32) -> Result<(), String> {
        match self {
            RefModel::Gbn(m) => m.on_data_tx(seq),
            RefModel::Sr(m) => m.on_data_tx(seq),
        }
    }

    fn on_data_rx(&mut self, seq: u32, last_frag: bool) -> Result<Vec<u64>, String> {
        match self {
            RefModel::Gbn(m) => m
                .on_data_rx(seq, last_frag)
                .map(|c| c.into_iter().collect()),
            RefModel::Sr(m) => m.on_data_rx(seq, last_frag),
        }
    }

    fn on_ack_tx(&mut self, seq: u32) -> Result<(), String> {
        match self {
            RefModel::Gbn(m) => m.on_ack_tx(seq),
            RefModel::Sr(_) => Err(format!(
                "plain ack (seq {seq}) from a selective-repeat receiver"
            )),
        }
    }

    fn on_ack_rx(&mut self, seq: u32) -> Result<(), String> {
        match self {
            RefModel::Gbn(m) => m.on_ack_rx(seq),
            RefModel::Sr(_) => Err(format!(
                "plain ack (seq {seq}) accepted by a selective-repeat sender"
            )),
        }
    }

    fn on_sack_tx(&mut self, cum: u32, bits: u64) -> Result<(), String> {
        match self {
            RefModel::Gbn(_) => Err(format!("sack (cum {cum}) from a go-back-n receiver")),
            RefModel::Sr(m) => m.on_sack_tx(cum, bits),
        }
    }

    fn on_sack_rx(&mut self, cum: u32, bits: u64) -> Result<(), String> {
        match self {
            RefModel::Gbn(_) => Err(format!("sack (cum {cum}) accepted by a go-back-n sender")),
            RefModel::Sr(m) => m.on_sack_rx(cum, bits),
        }
    }

    fn on_nack_tx(&mut self, seq: u32) -> Result<(), String> {
        match self {
            RefModel::Gbn(m) => m.on_nack_tx(seq),
            RefModel::Sr(m) => m.on_nack_tx(seq),
        }
    }

    fn on_conn_failed(&mut self) -> Result<(), String> {
        match self {
            RefModel::Gbn(m) => m.on_conn_failed(),
            RefModel::Sr(m) => m.on_conn_failed(),
        }
    }

    fn on_deliver(&mut self, counter: u64, expected_counter: u64) -> Result<(), String> {
        match self {
            RefModel::Gbn(m) => m.on_deliver(counter, expected_counter),
            RefModel::Sr(m) => m.on_deliver(counter, expected_counter),
        }
    }

    /// Go-back-N pins the contiguous window bounds; selective repeat pins
    /// the exact (possibly holed) in-flight sequence list.
    fn check_sender(&self, view: &SendConnView, unacked: &[u32]) -> Result<(), String> {
        match self {
            RefModel::Gbn(m) => m.check_sender(view),
            RefModel::Sr(m) => m.check_sender(view, unacked),
        }
    }

    fn check_receiver(&self, view: &RecvConnView, buffered: &[u32]) -> Result<(), String> {
        match self {
            RefModel::Gbn(m) => m.check_receiver(view),
            RefModel::Sr(m) => m.check_receiver(view, buffered),
        }
    }

    fn check_complete(&self) -> Result<(), String> {
        match self {
            RefModel::Gbn(m) => m.check_complete(),
            RefModel::Sr(m) => m.check_complete(),
        }
    }
}

/// The differential oracle: drains component traces after every event,
/// steps the per-direction reference models, and compares engine views.
struct SessionOracle {
    node_a: ComponentId,
    node_b: ComponentId,
    chan: ComponentId,
    a_to_b: RefModel,
    b_to_a: RefModel,
    cur_a: usize,
    cur_b: usize,
    cur_chan: usize,
    /// Counters of messages the model completed but the node has not yet
    /// logged as delivered (delivery is logged in the same event).
    due_a: VecDeque<u64>,
    due_b: VecDeque<u64>,
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

    /// Applies one node-local trace entry to the direction models.
    /// `a_side` says which endpoint logged it.
    fn apply(&mut self, at: SimTime, a_side: bool, ev: NodeEvent) {
        // `out_model` is the direction this node sends data on;
        // `in_model` the one it receives data on.
        macro_rules! out_model {
            () => {
                if a_side {
                    &mut self.a_to_b
                } else {
                    &mut self.b_to_a
                }
            };
        }
        macro_rules! in_model {
            () => {
                if a_side {
                    &mut self.b_to_a
                } else {
                    &mut self.a_to_b
                }
            };
        }
        match ev {
            NodeEvent::Submitted {
                first_seq,
                frames,
                counter,
            } => {
                let r = out_model!().on_submit(first_seq, frames, counter);
                self.record(at, "ltl.submit", r);
            }
            NodeEvent::DataTx { seq } => {
                let r = out_model!().on_data_tx(seq);
                self.record(at, "ltl.data_tx", r);
            }
            NodeEvent::AckRx { seq } => {
                let r = out_model!().on_ack_rx(seq);
                self.record(at, "ltl.ack_rx", r);
            }
            NodeEvent::SackRx { seq, bits } => {
                let r = out_model!().on_sack_rx(seq, bits);
                self.record(at, "ltl.sack_rx", r);
            }
            NodeEvent::NackRx => {}
            NodeEvent::ConnFailed => {
                let r = out_model!().on_conn_failed();
                self.record(at, "ltl.conn_failed", r);
            }
            NodeEvent::DataRx { seq, last_frag } => match in_model!().on_data_rx(seq, last_frag) {
                Ok(completed) => {
                    for counter in completed {
                        if a_side {
                            self.due_a.push_back(counter);
                        } else {
                            self.due_b.push_back(counter);
                        }
                    }
                }
                Err(detail) => self.record(at, "ltl.data_rx", Err(detail)),
            },
            NodeEvent::AckTx { seq } => {
                let r = in_model!().on_ack_tx(seq);
                self.record(at, "ltl.ack_tx", r);
            }
            NodeEvent::SackTx { seq, bits } => {
                let r = in_model!().on_sack_tx(seq, bits);
                self.record(at, "ltl.sack_tx", r);
            }
            NodeEvent::NackTx { seq } => {
                let r = in_model!().on_nack_tx(seq);
                self.record(at, "ltl.nack_tx", r);
            }
            NodeEvent::Delivered { counter } => {
                let due = if a_side {
                    self.due_a.pop_front()
                } else {
                    self.due_b.pop_front()
                };
                let r = match due {
                    Some(expect) => in_model!().on_deliver(counter, expect),
                    None => Err(format!(
                        "message with counter {counter} delivered but model completed none"
                    )),
                };
                self.record(at, "ltl.deliver", r);
            }
        }
    }

    fn compare_views(&mut self, at: SimTime, engine: &Engine<Msg>) {
        let Some(a) = engine.component::<LtlNode>(self.node_a) else {
            return;
        };
        let Some(b) = engine.component::<LtlNode>(self.node_b) else {
            return;
        };
        let checks = [
            (
                a.ltl.send_conn_view(0),
                a.ltl.send_unacked_seqs(0),
                b.ltl.recv_conn_view(0),
                b.ltl.recv_buffered_seqs(0),
                true,
            ),
            (
                b.ltl.send_conn_view(0),
                b.ltl.send_unacked_seqs(0),
                a.ltl.recv_conn_view(0),
                a.ltl.recv_buffered_seqs(0),
                false,
            ),
        ];
        for (send_view, unacked, recv_view, buffered, a_to_b) in checks {
            let (rs, rr) = {
                let model = if a_to_b { &self.a_to_b } else { &self.b_to_a };
                (
                    send_view.map(|v| model.check_sender(&v, unacked.as_deref().unwrap_or(&[]))),
                    recv_view.map(|v| model.check_receiver(&v, buffered.as_deref().unwrap_or(&[]))),
                )
            };
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
        for (id, a_side) in [(self.node_a, true), (self.node_b, false)] {
            let cursor = if a_side { self.cur_a } else { self.cur_b };
            let Some(node) = engine.component::<LtlNode>(id) else {
                continue;
            };
            let fresh: Vec<NodeEvent> = node.log[cursor..].to_vec();
            if a_side {
                self.cur_a = node.log.len();
            } else {
                self.cur_b = node.log.len();
            }
            for ev in fresh {
                self.apply(event.at, a_side, ev);
            }
        }
        if let Some(chan) = engine.component::<Channel>(self.chan) {
            let fresh: Vec<DropEntry> = chan.log[self.cur_chan..].to_vec();
            self.cur_chan = chan.log.len();
            for drop in fresh {
                // A lost data frame stalls its own direction; a lost
                // ack/nack stalls the direction it acknowledges.
                let data_toward_b = matches!(drop.kind, FrameKind::Data) == drop.toward_b;
                if data_toward_b {
                    self.a_to_b.on_drop();
                } else {
                    self.b_to_a.on_drop();
                }
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

    /// The fault mix used for session fuzzing: the standard chaos mix
    /// with outage lengths compressed to the session timescale.
    pub fn fault_config(horizon: SimDuration) -> FaultConfig {
        FaultConfig {
            flap_down: SimDuration::from_micros(300),
            tor_reboot: SimDuration::from_micros(900),
            hang_duration: SimDuration::from_micros(250),
            burst_frames: 3,
            ..FaultConfig::with_rate(horizon, 1.5)
        }
    }

    /// Generates the spec for one fuzzing seed. Odd seeds run with a
    /// salted tie-break order, exercising the schedule-perturbation
    /// half of the determinism contract.
    pub fn generate(seed: u64) -> SessionSpec {
        let horizon = SimDuration::from_millis(4);
        let plan = FaultPlan::generate(seed, &Self::targets(), &Self::fault_config(horizon));
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

    /// The same spec with a different transport mode (the A/B sweep runs
    /// every seed in both modes).
    pub fn with_mode(mut self, mode: LtlMode) -> SessionSpec {
        self.mode = mode;
        self
    }
}

/// Result of one differential session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Oracle violations, in event order.
    pub violations: Vec<Violation>,
    /// Events the engine dispatched.
    pub events: u64,
    /// Messages delivered across both directions.
    pub delivered: u64,
    /// Oracle checks evaluated.
    pub checks: u64,
}

/// Runs one differential session to quiescence.
pub fn run_session(spec: &SessionSpec) -> SessionOutcome {
    let (a_addr, b_addr) = SessionSpec::endpoints();
    let mut engine: Engine<Msg> = Engine::new(spec.seed);
    engine.set_tie_break_salt(spec.salt);

    let base = spec.horizon; // plan horizon; sends land in its first 55%
    let cfg = LtlConfig::default()
        .without_dcqcn()
        .with_nack_enabled(spec.nack)
        .with_mode(spec.mode);
    let mtu = cfg.mtu_payload;
    let recv_window = cfg.recv_window;

    let mut ltl_a = LtlEngine::new(a_addr, cfg.clone());
    let mut ltl_b = LtlEngine::new(b_addr, cfg);
    let a_recv = ltl_a.add_recv(b_addr);
    let b_recv = ltl_b.add_recv(a_addr);
    ltl_a.add_send(b_addr, b_recv);
    ltl_b.add_send(a_addr, a_recv);
    if spec.lose_retransmits > 0 {
        ltl_a.debug_lose_retransmits(spec.lose_retransmits);
    }
    if spec.omit_sacks > 0 {
        ltl_a.debug_omit_sacks(spec.omit_sacks);
    }

    let chan_id = engine.next_component_id();
    let node_a_id = ComponentId::from_raw(1);
    let node_b_id = ComponentId::from_raw(2);
    let chan = Channel::from_plan(&spec.plan, spec.seed, a_addr, b_addr, node_a_id, node_b_id);
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
    let mut rng = SimRng::seed_from(spec.seed ^ 0x5E55_1017);
    let window = base.as_nanos() as f64 * 0.55;
    for (node, n) in [
        (node_a_id, spec.msgs_each_way),
        (node_b_id, spec.msgs_each_way),
    ] {
        for counter in 0..n {
            let at = SimTime::from_nanos((rng.uniform() * window) as u64);
            let frames = 1 + rng.index(spec.max_msg_frames as usize);
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
        node_a: node_a_id,
        node_b: node_b_id,
        chan: chan_id,
        a_to_b: RefModel::new(spec.mode, recv_window),
        b_to_a: RefModel::new(spec.mode, recv_window),
        cur_a: 0,
        cur_b: 0,
        cur_chan: 0,
        due_a: VecDeque::new(),
        due_b: VecDeque::new(),
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
    for (model, name) in [(&oracle.a_to_b, "a_to_b"), (&oracle.b_to_a, "b_to_a")] {
        checks += 1;
        if let Err(detail) = model.check_complete() {
            violations.push(Violation {
                at: end,
                check: "ltl.complete",
                detail: format!("{name}: {detail}"),
            });
        }
    }
    let delivered = oracle.a_to_b.delivered() + oracle.b_to_a.delivered();
    SessionOutcome {
        violations,
        events,
        delivered,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_session_has_no_violations() {
        let mut spec = SessionSpec::generate(2); // even seed: FIFO order
        spec.plan = FaultPlan::default();
        let out = run_session(&spec);
        assert_eq!(out.violations, Vec::new());
        assert_eq!(out.delivered, 2 * spec.msgs_each_way as u64);
        assert!(out.checks > 0);
    }

    #[test]
    fn faulty_channel_still_satisfies_the_oracle() {
        for seed in 0..8 {
            let spec = SessionSpec::generate(seed);
            let out = run_session(&spec);
            assert_eq!(out.violations, Vec::new(), "seed {seed}");
        }
    }

    #[test]
    fn session_is_deterministic_per_seed() {
        let spec = SessionSpec::generate(5);
        let a = run_session(&spec);
        let b = run_session(&spec);
        assert_eq!(a.events, b.events);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.checks, b.checks);
    }

    #[test]
    fn clean_selective_repeat_session_has_no_violations() {
        let mut spec = SessionSpec::generate(2).with_mode(LtlMode::SelectiveRepeat);
        spec.plan = FaultPlan::default();
        let out = run_session(&spec);
        assert_eq!(out.violations, Vec::new());
        assert_eq!(out.delivered, 2 * spec.msgs_each_way as u64);
        assert!(out.checks > 0);
    }

    #[test]
    fn faulty_channel_still_satisfies_the_selective_repeat_oracle() {
        for seed in 0..8 {
            let spec = SessionSpec::generate(seed).with_mode(LtlMode::SelectiveRepeat);
            let out = run_session(&spec);
            assert_eq!(out.violations, Vec::new(), "seed {seed}");
        }
    }

    #[test]
    fn selective_repeat_session_is_deterministic_per_seed() {
        let spec = SessionSpec::generate(5).with_mode(LtlMode::SelectiveRepeat);
        let a = run_session(&spec);
        let b = run_session(&spec);
        assert_eq!(a.events, b.events);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.checks, b.checks);
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
            let mut spec = SessionSpec::generate(seed).with_mode(LtlMode::SelectiveRepeat);
            spec.omit_sacks = 4;
            if !run_session(&spec).violations.is_empty() {
                caught = true;
                break;
            }
        }
        assert!(caught, "sack-omission bug evaded the oracle on 32 seeds");
    }

    #[test]
    fn injected_retransmit_loss_is_caught() {
        // Losing a retransmission inside the engine desynchronises the
        // real window base from the model's cumulative-ack floor the
        // moment the entry disappears. It needs a seed whose plan
        // actually forces a timeout; sweep a few.
        let mut caught = false;
        for seed in 0..32 {
            let mut spec = SessionSpec::generate(seed);
            spec.lose_retransmits = 1;
            if !run_session(&spec).violations.is_empty() {
                caught = true;
                break;
            }
        }
        assert!(caught, "bug injection evaded the oracle on 32 seeds");
    }
}
