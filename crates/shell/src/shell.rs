//! The Shell component (Figure 4): the always-present logic on every FPGA.
//!
//! A [`Shell`] sits as a bump-in-the-wire between the server's NIC and the
//! TOR switch. It owns:
//!
//! * the **network bridge** forwarding all host traffic in both directions,
//!   with a [`NetworkTap`] through which roles inspect/alter/inject packets;
//! * the **LTL protocol engine** for direct FPGA-to-FPGA messaging over the
//!   datacenter network, behind two fixed-latency pipelines that are
//!   stages called in sequence, not events: a frame the engine emits
//!   takes its TOR wire slot in the same call, after the transmit
//!   pipeline's latency, and a received frame enters the engine in one
//!   event, which the last hop schedules after the receive pipeline's
//!   latency ([`Msg::LtlRx`]);
//! * two **egress ports**, each a stage: a frame handed over takes its
//!   wire slot, first come first served, and is sent to the peer in the
//!   same call. A bridged host frame is handed over when it leaves the
//!   bridge ([`Msg::Egress`]), an LTL frame when it leaves the transmit
//!   pipeline;
//! * PFC reaction on the TOR-facing port so lossless-class pauses from the
//!   switch stall the shell's transmissions.
//!
//! Local consumers (roles, host drivers) send messages with
//! [`Msg::LtlSend`], control the shell with [`ShellCmd`] messages and
//! receive [`Msg::LtlDeliver`] / [`LtlConnFailed`] payloads in return.

use std::collections::VecDeque;

use bytes::Bytes;
use dcnet::{
    LinkParams, LinkTx, LtlSend, Msg, NetEvent, NodeAddr, Packet, PortId, TrafficClass,
    LTL_UDP_PORT,
};
use dcsim::{Component, ComponentId, Context, SimDuration, SimTime};
use telemetry::{MetricSource, MetricVisitor, TrackTracer};

use crate::ltl::{Endpoint, LtlConfig, LtlEngine, SendConnId, TxKind};
use crate::tap::{NetworkTap, Role, TapAction};
use crate::tenant::{TenantCapTable, TenantCaps, TenantId};

/// Shell port facing the TOR switch.
pub const PORT_TOR: PortId = PortId(0);
/// Shell port facing the host NIC.
pub const PORT_NIC: PortId = PortId(1);

const TIMER_LTL: u64 = 0;
const TIMER_RECONFIG_DONE: u64 = 1;
const TIMER_ROLE_RECOVERED: u64 = 2;
const TIMER_LTL_CREDIT: u64 = 3;

/// LTL frames the TOR egress holds between the transmit pipeline's exit
/// and the wire before the pump stops polling: the MAC's credit.
const LTL_EGRESS_CREDIT: usize = 4;

/// Shell timing and protocol configuration.
#[derive(Debug, Clone)]
pub struct ShellConfig {
    /// LTL protocol configuration.
    pub ltl: LtlConfig,
    /// Egress link toward the TOR.
    pub tor_link: LinkParams,
    /// Egress link toward the NIC.
    pub nic_link: LinkParams,
    /// Latency from LTL deciding to send a frame to its first bit on the
    /// wire (packetizer, Elastic Router traversal, MAC).
    pub ltl_tx_latency: SimDuration,
    /// Latency from last bit received to the LTL engine reacting
    /// (MAC, depacketizer, receive state machine). The last hop adds it:
    /// the shell declares it when cabled (`dcnet::Fabric::attach`).
    pub ltl_rx_latency: SimDuration,
    /// Store-and-forward latency of the bridge for host traffic.
    pub bridge_latency: SimDuration,
    /// Duration of a full-chip reconfiguration (bridge and LTL down).
    pub full_reconfig: SimDuration,
    /// Duration of a role partial reconfiguration (bridge stays up, role
    /// tap bypassed).
    pub partial_reconfig: SimDuration,
}

impl Default for ShellConfig {
    fn default() -> Self {
        ShellConfig {
            ltl: LtlConfig::default(),
            tor_link: LinkParams::default(),
            nic_link: LinkParams::default(),
            ltl_tx_latency: SimDuration::from_nanos(460),
            ltl_rx_latency: SimDuration::from_nanos(450),
            bridge_latency: SimDuration::from_nanos(250),
            full_reconfig: SimDuration::from_millis(1_800),
            partial_reconfig: SimDuration::from_millis(250),
        }
    }
}

impl ShellConfig {
    /// Sets the LTL protocol configuration.
    pub fn with_ltl(mut self, ltl: LtlConfig) -> Self {
        self.ltl = ltl;
        self
    }
}

/// Commands local components send to their shell (wrapped in
/// [`Msg::custom`]).
#[derive(Debug)]
pub enum ShellCmd {
    /// Send a message over an LTL connection: the boxed form of
    /// [`Msg::LtlSend`], which the shell handles the same way. Kept for
    /// senders outside this workspace that still box it; a box costs a
    /// heap acquisition per message, the variant none.
    LtlSend {
        /// Send connection id (from [`LtlEngine::add_send`]).
        conn: SendConnId,
        /// Elastic Router virtual channel for the receiver.
        vc: u8,
        /// Message payload.
        payload: Bytes,
    },
    /// Begin a reconfiguration. A *full* reconfiguration takes the whole
    /// FPGA down — bridge included, so the server drops off the network
    /// for the load time. A *partial* reconfiguration swaps only the role:
    /// packets keep passing through (with the tap bypassed) and LTL keeps
    /// running.
    Reconfigure {
        /// `true` = role-only partial reconfiguration.
        partial: bool,
    },
    /// Fault injection: drop each egress LTL frame with this probability
    /// (models a lossy path between this FPGA and the fabric, exercising
    /// the LTL retransmission machinery). `0.0` disables injection.
    SetLtlLossRate(f64),
    /// Fault injection: the role logic wedges (an SEU flipped role state)
    /// for `duration`. The shell keeps bridging and ACKing — the node
    /// looks healthy from the network — but LTL deliveries to the
    /// consumer are lost until the role recovers (scrub / role reset).
    HangRole {
        /// How long the role stays wedged.
        duration: SimDuration,
    },
    /// Installs (`Some`) or removes (`None`) per-tenant isolation caps in
    /// the shell's [`TenantCapTable`]. Sent by the HaaS resource manager
    /// when a tenant's lease on a PR region of this board starts or ends.
    SetTenantCaps {
        /// The tenant whose caps change.
        tenant: TenantId,
        /// New caps, or `None` to return the tenant to unrestricted.
        caps: Option<TenantCaps>,
    },
    /// Attributes (`Some`) or detaches (`None`) an LTL send connection to
    /// a tenant, so its traffic is charged against that tenant's caps.
    BindTenant {
        /// The send connection to (re)attribute.
        conn: SendConnId,
        /// Owning tenant, or `None` to clear the binding.
        tenant: Option<TenantId>,
    },
}

/// Connection-failure notification, sent to the registered consumer.
#[derive(Debug, Clone, Copy)]
pub struct LtlConnFailed {
    /// The failed send connection.
    pub conn: SendConnId,
    /// Its remote endpoint.
    pub remote: NodeAddr,
}

/// Bridge/shell counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShellStats {
    /// Host->TOR packets bridged.
    pub bridged_out: u64,
    /// TOR->host packets bridged.
    pub bridged_in: u64,
    /// Packets dropped by the tap.
    pub tap_drops: u64,
    /// LTL frames handed to the wire.
    pub ltl_tx_frames: u64,
    /// LTL frames received from the wire.
    pub ltl_rx_frames: u64,
    /// Packets lost while a full reconfiguration had the link down.
    pub reconfig_drops: u64,
    /// Frames discarded because their FCS was corrupted in the fabric.
    pub corrupt_drops: u64,
    /// Egress LTL frames dropped by injected loss
    /// ([`ShellCmd::SetLtlLossRate`]).
    pub injected_drops: u64,
    /// LTL deliveries lost because the role was hung
    /// ([`ShellCmd::HangRole`]).
    pub hang_drops: u64,
    /// LTL sends refused at admission because the owning tenant exceeded
    /// its per-window caps ([`ShellCmd::SetTenantCaps`]).
    pub tenant_cap_drops: u64,
}

/// Reconfiguration state of the FPGA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reconfig {
    /// Normal operation.
    Running,
    /// Full-chip load in progress: everything is down.
    Full,
    /// Role-only load: bridge forwards (tap bypassed), LTL runs.
    Partial,
}

/// One of the shell's two egress ports, a stage: a frame handed over at
/// `ready` starts on the wire at `max(ready, wire free)` and is sent to
/// the peer, for its arrival, in the same call. Frames therefore take
/// the wire in the order they are handed over.
struct Port {
    tx: LinkTx,
    peer: Option<(ComponentId, PortId)>,
}

impl Port {
    fn new(link: LinkParams) -> Port {
        Port {
            tx: LinkTx::new(link),
            peer: None,
        }
    }

    /// Puts `pkt` on the wire at `max(ready, wire free)` and sends it to
    /// the peer: as a packet, or, given the peer shell's LTL receive
    /// latency `ltl_rx`, into its receive stage that long after arrival.
    /// Returns the wire start. An uncabled port drops the frame (the host
    /// is absent in some rigs).
    fn send(
        &mut self,
        pkt: Packet,
        ready: SimTime,
        ltl_rx: Option<SimDuration>,
        ctx: &mut Context<'_, Msg>,
    ) -> Option<SimTime> {
        let (peer, peer_port) = self.peer?;
        let start = ready.max(self.tx.busy_until());
        let arrives = self.tx.transmit(ready, pkt.wire_bytes()).arrives;
        match ltl_rx {
            Some(rx) => ctx.send_after(arrives + rx - ctx.now(), peer, Msg::LtlRx(pkt)),
            None => ctx.send_after(arrives - ctx.now(), peer, Msg::packet(pkt, peer_port)),
        }
        Some(start)
    }
}

/// The LTL transmit pipeline's hand-off to the TOR port. A frame the
/// pump polls at `t` leaves the pipeline (packetizer, ER, MAC) at
/// `exit = t + ltl_tx_latency` and is handed to the port then, within
/// the pump: it has no event of its own.
struct LtlTx {
    /// The peer's LTL receive latency when the peer is a shell cabled
    /// back-to-back: frames then enter its receive stage directly, as a
    /// TOR port would hand them over.
    peer_rx: Option<SimDuration>,
    /// `(exit, start)` of every frame that waits between pipeline exit
    /// and wire start, in wire order, until it starts.
    waiting: VecDeque<(SimTime, SimTime)>,
    /// The credit timer is armed: the pump found the credit closed and
    /// runs again when enough waiting frames have started to reopen it.
    credit_timer: bool,
}

impl LtlTx {
    /// Hands `pkt`, leaving the transmit pipeline at `exit`, to `tor`.
    fn transmit(&mut self, tor: &mut Port, pkt: Packet, exit: SimTime, ctx: &mut Context<'_, Msg>) {
        if let Some(start) = tor.send(pkt, exit, self.peer_rx, ctx) {
            if start > exit {
                self.waiting.push_back((exit, start));
            }
        }
    }

    /// Frames that have left the pipeline and not yet started on the
    /// wire at `now`: the head of `waiting`, once the started are gone.
    fn holding(&mut self, now: SimTime) -> usize {
        while self.waiting.front().is_some_and(|&(_, start)| start <= now) {
            self.waiting.pop_front();
        }
        (self.waiting.iter())
            .take_while(|&&(exit, _)| exit <= now)
            .count()
    }
}

/// The per-FPGA shell component.
pub struct Shell {
    addr: NodeAddr,
    cfg: ShellConfig,
    ltl: Endpoint<TIMER_LTL>,
    role: Role,
    tor: Port,
    ltl_tx: LtlTx,
    nic: Port,
    /// PFC pause state toward the TOR, per class.
    tor_paused: [bool; TrafficClass::COUNT],
    /// Bridged host frames for the TOR whose class was paused when they
    /// left the bridge, in arrival order.
    held: VecDeque<Packet>,
    stats: ShellStats,
    reconfig: Reconfig,
    /// When the latest-ending load in progress is done.
    reconfig_until: SimTime,
    ltl_loss_rate: f64,
    tracer: Option<TrackTracer>,
    tenant_caps: TenantCapTable,
}

impl Shell {
    /// Creates a shell for the FPGA at `addr` with the default passthrough
    /// tap.
    pub fn new(addr: NodeAddr, cfg: ShellConfig) -> Shell {
        Shell {
            addr,
            ltl: Endpoint::new(LtlEngine::new(addr, cfg.ltl.clone())),
            role: Role::new(),
            tor: Port::new(cfg.tor_link),
            ltl_tx: LtlTx {
                peer_rx: None,
                waiting: VecDeque::new(),
                credit_timer: false,
            },
            nic: Port::new(cfg.nic_link),
            tor_paused: [false; TrafficClass::COUNT],
            held: VecDeque::new(),
            cfg,
            stats: ShellStats::default(),
            reconfig: Reconfig::Running,
            reconfig_until: SimTime::ZERO,
            ltl_loss_rate: 0.0,
            tracer: None,
            tenant_caps: TenantCapTable::default(),
        }
    }

    /// Installs a flight-recorder track; the shell then records LTL
    /// send/retransmit/ack/deliver instants on its hot paths.
    pub fn set_tracer(&mut self, tracer: TrackTracer) {
        self.tracer = Some(tracer);
    }

    /// Whether the role is currently wedged by [`ShellCmd::HangRole`].
    pub fn role_hung(&self) -> bool {
        self.role.hang_until.is_some()
    }

    /// Whether the bump-in-the-wire is currently forwarding host traffic.
    pub fn bridge_up(&self) -> bool {
        self.reconfig != Reconfig::Full
    }

    /// This FPGA's fabric address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// Bridge and LTL wire counters, by reference (the registry view via
    /// [`telemetry::MetricSource`] remains the primary read path; this
    /// accessor serves event-granularity invariant checkers that need the
    /// raw counters between events without a snapshot allocation).
    pub fn stats_view(&self) -> &ShellStats {
        &self.stats
    }

    /// The per-tenant cap ledger (empty unless the HaaS scheduler has
    /// programmed caps via [`ShellCmd::SetTenantCaps`]).
    pub fn tenant_caps(&self) -> &TenantCapTable {
        &self.tenant_caps
    }

    /// Whether the TOR-facing egress is currently PFC-paused for `class`
    /// (test/diagnostic: paused classes must not put frames on the wire).
    pub fn tor_paused(&self, class: TrafficClass) -> bool {
        self.tor_paused[class.index()]
    }

    /// Installs a role tap on the bridge (replacing the passthrough).
    pub fn set_tap(&mut self, tap: Box<dyn NetworkTap>) {
        self.role.tap = tap;
    }

    /// Borrows the installed tap as a concrete type (to read role state
    /// after a run).
    pub fn tap_as<T: NetworkTap>(&self) -> Option<&T> {
        (self.role.tap.as_ref() as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Registers the component that receives [`Msg::LtlDeliver`] /
    /// [`LtlConnFailed`] payloads.
    pub fn set_consumer(&mut self, consumer: ComponentId) {
        self.role.consumer = Some(consumer);
    }

    /// Cables the TOR-facing port to its switch port — or, in a
    /// back-to-back rig, to another shell, which then declares its LTL
    /// receive latency as `peer_ltl_rx`: LTL frames enter its receive
    /// stage directly, as a TOR port would hand them over
    /// (`dcnet::Switch::connect_shell`).
    pub fn connect_tor(
        &mut self,
        comp: ComponentId,
        port: PortId,
        peer_ltl_rx: Option<SimDuration>,
    ) {
        self.tor.peer = Some((comp, port));
        self.ltl_tx.peer_rx = peer_ltl_rx;
    }

    /// Cables the NIC-facing port to the host NIC.
    pub fn connect_nic(&mut self, comp: ComponentId, port: PortId) {
        self.nic.peer = Some((comp, port));
    }

    /// The LTL engine, for connection setup and statistics.
    pub fn ltl(&self) -> &LtlEngine {
        self.ltl.engine()
    }

    /// Mutable LTL engine access (connection setup before a run, RTT
    /// sample extraction after).
    pub fn ltl_mut(&mut self) -> &mut LtlEngine {
        self.ltl.engine_mut()
    }

    /// A bridged host frame leaving the bridge (and the tap) for `port`.
    /// It takes its wire slot now, unless PFC has its class paused toward
    /// the TOR: it is then held for the resume.
    fn bridge_egress(&mut self, port: PortId, pkt: Packet, ctx: &mut Context<'_, Msg>) {
        match port {
            PORT_TOR if self.tor_paused[pkt.class.index()] => self.held.push_back(pkt),
            PORT_TOR => _ = self.tor.send(pkt, ctx.now(), None, ctx),
            PORT_NIC => _ = self.nic.send(pkt, ctx.now(), None, ctx),
            other => panic!("shell has no port {other}"),
        }
    }

    /// A PFC resume: the held frames of every class no longer paused
    /// take their TOR wire slots in arrival order, then the LTL pump runs.
    fn resume(&mut self, ctx: &mut Context<'_, Msg>) {
        for pkt in std::mem::take(&mut self.held) {
            self.bridge_egress(PORT_TOR, pkt, ctx);
        }
        self.pump_ltl(ctx);
    }

    /// Whether the TOR egress path can take more LTL frames right now.
    /// Mirrors the credit interface between the LTL engine and the MAC:
    /// while PFC has the lossless class paused, or
    /// [`LTL_EGRESS_CREDIT`] frames have left the transmit pipeline and
    /// wait for the wire, frames stay inside the engine — unsent and
    /// untimed — instead of aging toward a spurious retransmission
    /// timeout in a queue. Frames inside the pipeline drain and count
    /// toward neither. A credit closed by waiting frames arms the credit
    /// timer for the start that leaves one credit free (frames exiting
    /// the pipeline meanwhile may re-arm it); a pause is lifted by a
    /// resume, which pumps.
    fn ltl_egress_open(&mut self, ctx: &mut Context<'_, Msg>) -> bool {
        if self.tor_paused[TrafficClass::LTL.index()] {
            return false;
        }
        let tx = &mut self.ltl_tx;
        let holding = tx.holding(ctx.now());
        if holding < LTL_EGRESS_CREDIT {
            return true;
        }
        let reopens = tx.waiting.get(holding - LTL_EGRESS_CREDIT);
        if let (false, Some(&(_, start))) = (tx.credit_timer, reopens) {
            tx.credit_timer = true;
            ctx.timer_after(start - ctx.now(), TIMER_LTL_CREDIT);
        }
        false
    }

    /// The shell's one LTL pump: the endpoint's poll loop plus the shell's
    /// policy. A full reconfiguration skips it entirely, the endpoint's
    /// timer included: LTL is down with the rest of the FPGA, and the done
    /// timer pumps. A closed egress (a PFC pause, no credit) polls nothing
    /// but still arms the timer for the next retransmission deadline. Each
    /// frame polled is counted, traced, possibly lost to injected loss,
    /// and otherwise passes the transmit pipeline and takes its TOR wire
    /// slot within this call ([`LtlTx::transmit`]). A frame still inside
    /// the pipeline holds no credit, so the credit checked once holds for
    /// the whole loop.
    fn pump_ltl(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.reconfig == Reconfig::Full {
            return;
        }
        if !self.ltl_egress_open(ctx) {
            self.ltl.arm(ctx, SimTime::MAX);
            return;
        }
        let (stats, tracer) = (&mut self.stats, &self.tracer);
        let (tor, ltl_tx) = (&mut self.tor, &mut self.ltl_tx);
        let (loss_rate, tx_latency) = (self.ltl_loss_rate, self.cfg.ltl_tx_latency);
        self.ltl.pump(ctx, |ctx, pkt, kind| {
            stats.ltl_tx_frames += 1;
            let instant = match kind {
                TxKind::Retransmit => Some("ltl_retx"),
                TxKind::Data => Some("ltl_send"),
                TxKind::Control => None,
            };
            if let (Some(tracer), Some(name)) = (tracer, instant) {
                tracer.instant(ctx.now(), name, &[("dst", pkt.dst.as_u32() as u64)]);
            }
            if loss_rate > 0.0 && ctx.rng().chance(loss_rate) {
                // Injected loss: the frame vanishes on the wire and the
                // retransmission timeout must recover it.
                stats.injected_drops += 1;
                return;
            }
            ltl_tx.transmit(tor, pkt, ctx.now() + tx_latency, ctx);
        });
    }

    /// The MAC's verdicts on a frame entering the shell, as a packet or
    /// into the LTL receive stage. A bad FCS is discarded before any
    /// higher layer sees it (LTL senders recover by retransmission), and
    /// nothing gets through while a full reconfiguration has the link
    /// down. Returns whether the frame was dropped.
    fn mac_drops(&mut self, pkt: &Packet) -> bool {
        if pkt.corrupt {
            self.stats.corrupt_drops += 1;
        } else if self.reconfig == Reconfig::Full {
            self.stats.reconfig_drops += 1;
        } else {
            return false;
        }
        true
    }

    /// The bridge: host -> datacenter through the role's tap and out the
    /// TOR port, everything else to the host.
    fn on_packet(&mut self, pkt: Packet, ingress: PortId, ctx: &mut Context<'_, Msg>) {
        if self.mac_drops(&pkt) {
            return;
        }
        let (port, bridged) = match ingress {
            PORT_NIC => (PORT_TOR, &mut self.stats.bridged_out),
            PORT_TOR => {
                debug_assert!(
                    pkt.dst_port != LTL_UDP_PORT || pkt.dst != self.addr,
                    "an LTL frame for {} arrived as a packet: its last hop was \
                     cabled without the shell's receive stage",
                    self.addr
                );
                (PORT_NIC, &mut self.stats.bridged_in)
            }
            other => panic!("shell has no port {other}"),
        };
        let bypassed = self.reconfig == Reconfig::Partial;
        match self.role.bridge(pkt, ingress, ctx.now(), bypassed) {
            TapAction::Forward { pkt, delay } => {
                *bridged += 1;
                let egress = Msg::Egress { port, pkt };
                ctx.send_to_self_after(self.cfg.bridge_latency + delay, egress);
            }
            TapAction::Drop => self.stats.tap_drops += 1,
        }
    }

    /// Queues a consumer's message on its LTL connection, whether it came
    /// as [`Msg::LtlSend`] or as a boxed [`ShellCmd::LtlSend`].
    fn ltl_send(&mut self, send: LtlSend, ctx: &mut Context<'_, Msg>) {
        let LtlSend { conn, vc, payload } = send;
        if !self.tenant_caps.admit(conn, ctx.now(), payload.len()) {
            self.stats.tenant_cap_drops += 1;
            return;
        }
        // Errors surface as ConnectionFailed notifications; sends on
        // failed connections are dropped.
        let _ = self.ltl_mut().send_message(conn, vc, payload);
        self.pump_ltl(ctx);
    }

    /// The shell's own commands, boxed by whoever sends them.
    fn on_command(&mut self, cmd: ShellCmd, ctx: &mut Context<'_, Msg>) {
        match cmd {
            ShellCmd::LtlSend { conn, vc, payload } => {
                self.ltl_send(LtlSend { conn, vc, payload }, ctx);
            }
            ShellCmd::Reconfigure { partial } => {
                let (state, t) = if partial {
                    (Reconfig::Partial, self.cfg.partial_reconfig)
                } else {
                    (Reconfig::Full, self.cfg.full_reconfig)
                };
                // Overlapping loads extend, never shorten, and
                // a full load dominates a partial one.
                if self.reconfig != Reconfig::Full {
                    self.reconfig = state;
                }
                self.reconfig_until = self.reconfig_until.max(ctx.now() + t);
                ctx.timer_after(t, TIMER_RECONFIG_DONE);
            }
            ShellCmd::SetLtlLossRate(rate) => {
                self.ltl_loss_rate = rate.clamp(0.0, 1.0);
            }
            ShellCmd::HangRole { duration } => {
                self.role.hang(ctx.now() + duration);
                ctx.timer_after(duration, TIMER_ROLE_RECOVERED);
            }
            ShellCmd::SetTenantCaps { tenant, caps } => self.tenant_caps.set_caps(tenant, caps),
            ShellCmd::BindTenant { conn, tenant } => self.tenant_caps.bind(conn, tenant),
        }
    }

    /// The LTL receive stage: the end of the receive pipeline (MAC,
    /// depacketizer), `ltl_rx_latency` after the frame's last bit
    /// arrived. The last hop adds that latency ([`Msg::LtlRx`]), so the
    /// MAC's verdicts ([`Shell::mac_drops`]) are taken here, at stage
    /// entry. Upcalls go to the role ([`Role::deliver`]).
    fn ltl_rx(&mut self, pkt: Packet, ctx: &mut Context<'_, Msg>) {
        if self.mac_drops(&pkt) {
            return;
        }
        self.stats.ltl_rx_frames += 1;
        let acks_before = self.ltl().stats_view().acks_rx;
        let (role, tracer, stats) = (&self.role, &self.tracer, &mut self.stats);
        (self.ltl).on_packet(&pkt, ctx, |ctx, ev| role.deliver(ctx, ev, tracer, stats));
        // An ACK frame has no upcalls, so no `ltl_deliver` instant can
        // precede this.
        if let Some(tracer) = &self.tracer {
            if self.ltl().stats_view().acks_rx > acks_before {
                tracer.instant(ctx.now(), "ltl_ack", &[("src", pkt.src.as_u32() as u64)]);
            }
        }
        // ACKs/CNPs may now be queued.
        self.pump_ltl(ctx);
    }
}

impl Component<Msg> for Shell {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::Net(NetEvent::Packet { pkt, ingress }) => self.on_packet(pkt, ingress, ctx),
            Msg::Net(NetEvent::Pfc {
                class,
                ingress,
                pause,
            }) => {
                // Only the TOR can pause us (lossless classes).
                if ingress == PORT_TOR {
                    self.tor_paused[class.index()] = pause;
                    if !pause {
                        self.resume(ctx);
                    }
                }
            }
            Msg::Egress { port, pkt } => self.bridge_egress(port, pkt, ctx),
            Msg::LtlRx(pkt) => self.ltl_rx(pkt, ctx),
            // Deliveries are addressed to consumers, flow-model and switch
            // commands to those components, never to a shell.
            Msg::LtlDeliver(_) | Msg::FlowSim(_) | Msg::Switch(_) => {}
            // A send command, typed or boxed; then the shell's own commands.
            other => match other.downcast::<LtlSend>() {
                Ok(send) => self.ltl_send(send, ctx),
                Err(boxed) => {
                    if let Ok(cmd) = boxed.downcast::<ShellCmd>() {
                        self.on_command(cmd, ctx);
                    }
                }
            },
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Msg>) {
        match token {
            TIMER_LTL => {
                let (role, tracer, stats) = (&self.role, &self.tracer, &mut self.stats);
                (self.ltl).on_timer(ctx, |ctx, ev| role.deliver(ctx, ev, tracer, stats));
                self.pump_ltl(ctx);
            }
            TIMER_LTL_CREDIT => {
                self.ltl_tx.credit_timer = false;
                self.pump_ltl(ctx);
            }
            TIMER_RECONFIG_DONE => {
                // Only the timer of the latest-ending load ends it.
                if ctx.now() >= self.reconfig_until {
                    self.reconfig = Reconfig::Running;
                    self.pump_ltl(ctx);
                }
            }
            TIMER_ROLE_RECOVERED => self.role.recover(ctx.now()),
            other => panic!("unknown shell timer {other}"),
        }
    }
}

impl MetricSource for Shell {
    fn metrics(&self, m: &mut MetricVisitor<'_>) {
        m.counter("bridged_out", self.stats.bridged_out);
        m.counter("bridged_in", self.stats.bridged_in);
        m.counter("tap_drops", self.stats.tap_drops);
        m.counter("ltl_tx_frames", self.stats.ltl_tx_frames);
        m.counter("ltl_rx_frames", self.stats.ltl_rx_frames);
        m.counter("reconfig_drops", self.stats.reconfig_drops);
        m.counter("corrupt_drops", self.stats.corrupt_drops);
        m.counter("injected_drops", self.stats.injected_drops);
        m.counter("hang_drops", self.stats.hang_drops);
        m.counter("tenant_cap_drops", self.stats.tenant_cap_drops);
        m.gauge("bridge_up", if self.bridge_up() { 1.0 } else { 0.0 });
        m.gauge("role_hung", if self.role_hung() { 1.0 } else { 0.0 });
        m.child("ltl", self.ltl());
        if !self.tenant_caps.is_empty() {
            m.child("tenants", &self.tenant_caps);
        }
    }
}

impl core::fmt::Debug for Shell {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Shell")
            .field("addr", &self.addr)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnet::LtlDeliver;
    use dcsim::Engine;

    /// Records packets (a stand-in for a NIC or TOR) and LTL deliveries.
    #[derive(Debug, Default)]
    struct Probe {
        packets: Vec<(SimTime, Packet, PortId)>,
        deliveries: Vec<(SimTime, LtlDeliver)>,
        failures: Vec<LtlConnFailed>,
    }

    impl Component<Msg> for Probe {
        fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Net(NetEvent::Packet { pkt, ingress }) => {
                    self.packets.push((ctx.now(), pkt, ingress));
                }
                other => match other.downcast::<LtlDeliver>() {
                    Ok(d) => self.deliveries.push((ctx.now(), d)),
                    Err(other) => {
                        if let Ok(f) = other.downcast::<LtlConnFailed>() {
                            self.failures.push(f);
                        }
                    }
                },
            }
        }
    }

    fn addr(h: u16) -> NodeAddr {
        NodeAddr::new(0, 0, h)
    }

    /// An LTL send of `payload` on `conn`, virtual channel 0.
    fn ltl_send(conn: SendConnId, payload: Bytes) -> Msg {
        Msg::LtlSend(LtlSend {
            conn,
            vc: 0,
            payload,
        })
    }

    fn host_pkt(src: u16, dst: u16) -> Packet {
        Packet::new(
            addr(src),
            addr(dst),
            1111,
            2222,
            TrafficClass::BEST_EFFORT,
            Bytes::from_static(b"host traffic"),
        )
    }

    /// Shell with a probe on each side. Returns (engine, shell, nic, tor).
    fn rig() -> (Engine<Msg>, ComponentId, ComponentId, ComponentId) {
        let mut e: Engine<Msg> = Engine::new(1);
        let shell_id = e.next_component_id();
        let mut shell = Shell::new(addr(1), ShellConfig::default());
        let nic_id = ComponentId::from_raw(shell_id.as_raw() + 1);
        let tor_id = ComponentId::from_raw(shell_id.as_raw() + 2);
        shell.connect_nic(nic_id, PortId(0));
        shell.connect_tor(tor_id, PortId(0), None);
        e.add_component(shell);
        e.add_component(Probe::default());
        e.add_component(Probe::default());
        (e, shell_id, nic_id, tor_id)
    }

    /// Every board carries one shell, the way every switch port is a
    /// `dcnet` `Port` (`switch::tests::a_port_is_552_bytes`): its stages
    /// are fields, so a stage's padding would be paid by every board.
    /// 1,240 B on x86-64 before the role and tenant admission became
    /// stages, 1,232 B since.
    #[test]
    fn a_shell_is_at_most_1240_bytes() {
        let size = std::mem::size_of::<Shell>();
        assert!(size <= 1_240, "Shell is {size} B");
    }

    #[test]
    fn bridges_outbound_host_traffic_to_tor() {
        let (mut e, shell, _nic, tor) = rig();
        e.schedule(SimTime::ZERO, shell, Msg::packet(host_pkt(1, 5), PORT_NIC));
        e.run_to_idle();
        let tor_probe = e.component::<Probe>(tor).unwrap();
        assert_eq!(tor_probe.packets.len(), 1);
        // bridge latency (250ns) + serialization + propagation
        assert!(tor_probe.packets[0].0 >= SimTime::from_nanos(250));
        assert_eq!(
            e.component::<Shell>(shell)
                .unwrap()
                .stats_view()
                .bridged_out,
            1
        );
    }

    /// The poll timer follows the earliest paced frame: connection B's
    /// second frame arms it for 9.16 us, then A's second frame, eligible
    /// at 8.16 us, arms it again for that instant, and A2 is handed to the
    /// transmit pipeline then, not when B's timer fires.
    #[test]
    fn a_paced_frame_leaves_at_its_own_instant() {
        let mut cfg = ShellConfig::default();
        // 1 Gb/s: a 1000-byte message paces its connection for 8.16 us.
        cfg.ltl.dcqcn.as_mut().expect("on by default").line_rate_bps = 1e9;
        let tor_link = cfg.tor_link;
        let ltl_tx_latency = cfg.ltl_tx_latency;

        let mut e: Engine<Msg> = Engine::new(1);
        let mut shell = Shell::new(addr(1), cfg);
        let tor_id = ComponentId::from_raw(1);
        shell.connect_tor(tor_id, PortId(0), None);
        let a = shell.ltl_mut().add_send(addr(5), 0);
        let b = shell.ltl_mut().add_send(addr(6), 0);
        let shell_id = e.add_component(shell);
        e.add_component(Probe::default());

        let send = |conn| ltl_send(conn, Bytes::from(vec![7u8; 1000]));
        e.schedule(SimTime::ZERO, shell_id, send(a)); // A1 leaves; A paced to 8.16 us
        e.schedule(SimTime::from_micros(1), shell_id, send(b)); // B1 leaves; B paced to 9.16 us
        e.schedule(SimTime::from_micros(2), shell_id, send(b)); // B2 waits: poll timer at 9.16 us
        e.schedule(SimTime::from_micros(3), shell_id, send(a)); // A2 waits: poll timer at 8.16 us
        e.run_until(SimTime::from_micros(10));

        let tor = e.component::<Probe>(tor_id).unwrap();
        let to_a: Vec<&(SimTime, Packet, PortId)> = (tor.packets.iter())
            .filter(|(_, p, _)| p.dst == addr(5))
            .collect();
        let [_, (a2_at, a2, _)] = to_a[..] else {
            panic!("A1 and A2 reach the TOR, got {}", to_a.len());
        };
        assert_eq!(
            *a2_at,
            SimTime::from_nanos(8_160)
                + ltl_tx_latency
                + tor_link.serialization(a2.wire_bytes())
                + tor_link.propagation,
            "A2 must be handed over at 8.16 us, not wait for B's poll timer"
        );
    }

    /// Overlapping loads: the bridge comes back when the last one ends,
    /// and a full load that starts during a partial one keeps the whole
    /// FPGA down though the partial load's timer fires first.
    #[test]
    fn overlapping_reconfigurations_end_with_the_last_load() {
        let (mut e, shell, _nic, _tor) = rig();
        let reconfig = |partial| Msg::custom(ShellCmd::Reconfigure { partial });
        let bridge_up_at = |e: &mut Engine<Msg>, ms| {
            e.run_until(SimTime::from_millis(ms));
            e.component::<Shell>(shell).unwrap().bridge_up()
        };
        // Full loads at 0 s and 1 s: down until 2.8 s, not 1.8 s.
        e.schedule(SimTime::ZERO, shell, reconfig(false));
        e.schedule(SimTime::from_secs(1), shell, reconfig(false));
        assert!(!bridge_up_at(&mut e, 2_000));
        assert!(bridge_up_at(&mut e, 2_800));
        // A partial load at 3 s, a full one at 3.1 s: down until 4.9 s.
        e.schedule(SimTime::from_secs(3), shell, reconfig(true));
        e.schedule(SimTime::from_millis(3_100), shell, reconfig(false));
        assert!(!bridge_up_at(&mut e, 3_300));
        assert!(!bridge_up_at(&mut e, 4_899));
        assert!(bridge_up_at(&mut e, 4_900));
    }

    /// A full reconfiguration takes LTL down with the rest of the FPGA:
    /// a frame left unACKed before it is not retransmitted while the image
    /// loads, though its retransmission deadline passes, and goes out again
    /// once the load is done.
    #[test]
    fn full_reconfig_puts_no_ltl_frame_on_the_wire() {
        let (mut e, shell, _nic, tor) = rig();
        let conn = (e.component_mut::<Shell>(shell).unwrap())
            .ltl_mut()
            .add_send(addr(2), 0);
        e.schedule(
            SimTime::ZERO,
            shell,
            ltl_send(conn, Bytes::from_static(b"never acked")),
        );
        let reconfig = ShellCmd::Reconfigure { partial: false };
        e.schedule(SimTime::from_micros(5), shell, Msg::custom(reconfig));
        let load_done = SimTime::from_micros(5) + ShellConfig::default().full_reconfig;
        e.run_until(load_done);
        let on_wire = |e: &Engine<Msg>| e.component::<Probe>(tor).unwrap().packets.len();
        assert_eq!(on_wire(&e), 1, "only the first transmission");
        e.run_until(load_done + SimDuration::from_micros(100));
        assert_eq!(on_wire(&e), 2, "retransmitted after the load");
    }

    #[test]
    fn bridges_inbound_traffic_to_nic() {
        let (mut e, shell, nic, _tor) = rig();
        e.schedule(SimTime::ZERO, shell, Msg::packet(host_pkt(5, 1), PORT_TOR));
        e.run_to_idle();
        let nic_probe = e.component::<Probe>(nic).unwrap();
        assert_eq!(nic_probe.packets.len(), 1);
        assert_eq!(
            e.component::<Shell>(shell).unwrap().stats_view().bridged_in,
            1
        );
    }

    #[test]
    fn ltl_frames_for_us_do_not_reach_the_host() {
        let (mut e, shell, nic, _tor) = rig();
        // A fake LTL frame addressed to this shell, as its last hop hands
        // it over: into the receive stage.
        let mut pkt = host_pkt(5, 1);
        pkt.src_port = LTL_UDP_PORT;
        pkt.dst_port = LTL_UDP_PORT;
        e.schedule(SimTime::ZERO, shell, Msg::LtlRx(pkt));
        e.run_to_idle();
        assert!(e.component::<Probe>(nic).unwrap().packets.is_empty());
        assert_eq!(
            e.component::<Shell>(shell)
                .unwrap()
                .stats_view()
                .ltl_rx_frames,
            1
        );
    }

    #[test]
    fn ltl_udp_traffic_for_other_hosts_is_bridged() {
        let (mut e, shell, nic, _tor) = rig();
        let mut pkt = host_pkt(5, 9); // dst != shell addr
        pkt.dst_port = LTL_UDP_PORT;
        e.schedule(SimTime::ZERO, shell, Msg::packet(pkt, PORT_TOR));
        e.run_to_idle();
        assert_eq!(e.component::<Probe>(nic).unwrap().packets.len(), 1);
    }

    /// Bridged host frames of a paused class wait in arrival order while
    /// best-effort frames pass; the resume puts them on the wire back to
    /// back, first come first served.
    #[test]
    fn pfc_pause_from_tor_stalls_ltl_class() {
        let (mut e, shell, _nic, tor) = rig();
        let pfc = |pause| {
            Msg::Net(NetEvent::Pfc {
                class: TrafficClass::LTL,
                ingress: PORT_TOR,
                pause,
            })
        };
        e.schedule(SimTime::ZERO, shell, pfc(true));
        for (ns, dst, class) in [
            (10, 5, TrafficClass::LTL),
            (20, 6, TrafficClass::LTL),
            (30, 7, TrafficClass::BEST_EFFORT),
        ] {
            let mut pkt = host_pkt(1, dst);
            pkt.class = class;
            e.schedule(SimTime::from_nanos(ns), shell, Msg::packet(pkt, PORT_NIC));
        }
        e.run_until(SimTime::from_micros(100));
        let arrivals = |e: &Engine<Msg>| {
            let probe = e.component::<Probe>(tor).unwrap();
            (probe.packets.iter())
                .map(|(t, p, _)| (*t, p.dst))
                .collect::<Vec<_>>()
        };
        let (cfg, frame) = (ShellConfig::default(), host_pkt(1, 5).wire_bytes());
        let (frame, propagation) = (cfg.tor_link.serialization(frame), cfg.tor_link.propagation);
        let be_at = SimTime::from_nanos(30) + cfg.bridge_latency + frame + propagation;
        assert_eq!(arrivals(&e), [(be_at, addr(7))]);

        let resume = SimTime::from_micros(101);
        e.schedule(resume, shell, pfc(false));
        e.run_to_idle();
        let after = |frames: u64| resume + frame * frames + propagation;
        assert_eq!(
            arrivals(&e)[1..],
            [(after(1), addr(5)), (after(2), addr(6))]
        );
        assert!(e.component::<Shell>(shell).unwrap().held.is_empty());
    }

    /// Mirrors simcheck's `shell.pfc_obedience` invariant: a shell whose
    /// TOR egress is paused before and after an event hands no LTL frame
    /// to the wire in it.
    struct PfcObedience {
        shell: ComponentId,
        prev: Option<(bool, u64)>,
        violations: u32,
    }

    impl dcsim::Observer<Msg> for PfcObedience {
        fn after_event(&mut self, _event: &dcsim::EventRecord, engine: &Engine<Msg>) {
            let shell = engine.component::<Shell>(self.shell).unwrap();
            let now = (
                shell.tor_paused(TrafficClass::LTL),
                shell.stats_view().ltl_tx_frames,
            );
            if let Some((paused, frames)) = self.prev {
                if paused && now.0 && now.1 != frames {
                    self.violations += 1;
                }
            }
            self.prev = Some(now);
        }
    }

    /// PFC gates the transmit pipeline's entry, not its exit: the two
    /// frames inside the 460 ns pipeline when the pause lands reach the
    /// wire at their usual instants, and nothing else leaves the pump —
    /// a new message, retransmissions — until the resume.
    #[test]
    fn pfc_pause_drains_the_tx_pipeline_and_gates_the_pump() {
        let (mut e, shell, _nic, tor) = rig();
        let conn = (e.component_mut::<Shell>(shell).unwrap())
            .ltl_mut()
            .add_send(addr(2), 0);
        let send = || ltl_send(conn, Bytes::from_static(b"in the pipeline"));
        let pfc = |pause| {
            Msg::Net(NetEvent::Pfc {
                class: TrafficClass::LTL,
                ingress: PORT_TOR,
                pause,
            })
        };
        e.set_observer(Box::new(PfcObedience {
            shell,
            prev: None,
            violations: 0,
        }));
        e.schedule(SimTime::ZERO, shell, send());
        e.schedule(SimTime::from_nanos(100), shell, send());
        e.schedule(SimTime::from_nanos(200), shell, pfc(true));
        e.schedule(SimTime::from_nanos(300), shell, send());
        e.run_until(SimTime::from_micros(100));

        let cfg = ShellConfig::default();
        let wire = |e: &Engine<Msg>| {
            let probe = e.component::<Probe>(tor).unwrap();
            probe.packets.iter().map(|(t, ..)| *t).collect::<Vec<_>>()
        };
        let frame = e.component::<Probe>(tor).unwrap().packets[0].1.wire_bytes();
        let on_wire = |handed: u64| {
            SimTime::from_nanos(handed)
                + cfg.ltl_tx_latency
                + cfg.tor_link.serialization(frame)
                + cfg.tor_link.propagation
        };
        assert_eq!(wire(&e), [on_wire(0), on_wire(100)]);
        let stats = *e.component::<Shell>(shell).unwrap().stats_view();
        assert_eq!(stats.ltl_tx_frames, 2, "the pump stays shut while paused");

        e.schedule(SimTime::from_micros(101), shell, pfc(false));
        e.run_until(SimTime::from_micros(102));
        // The third message and the two frames' retransmissions, all
        // polled by the resume's pump.
        assert_eq!(wire(&e).len(), 5);
        assert_eq!(wire(&e)[2], on_wire(101_000));
        let observer = e.observer_as::<PfcObedience>().unwrap();
        assert_eq!(observer.violations, 0);
    }

    /// One pump puts a whole window into the transmit pipeline; a later
    /// pump finds the frames waiting for the wire, holding the credit,
    /// and polls nothing. The credit timer pumps again once all but three
    /// have started, one event, so the next message follows the burst
    /// onto the wire without a gap.
    #[test]
    fn a_closed_credit_reopens_as_the_burst_drains() {
        let mut cfg = ShellConfig::default();
        cfg.ltl.dcqcn = None;
        let mut e: Engine<Msg> = Engine::new(1);
        let mut shell = Shell::new(addr(1), cfg.clone());
        shell.connect_tor(ComponentId::from_raw(1), PortId(0), None);
        let conn = shell.ltl_mut().add_send(addr(2), 0);
        let shell_id = e.add_component(shell);
        let tor = e.add_component(Probe::default());
        let send = |bytes| ltl_send(conn, Bytes::from(vec![1u8; bytes]));
        let burst = 16 * cfg.ltl.mtu_payload;
        e.schedule(SimTime::ZERO, shell_id, send(burst));
        e.schedule(SimTime::from_micros(1), shell_id, send(8));
        e.run_until(SimTime::from_micros(9));

        let probe = e.component::<Probe>(tor).unwrap();
        assert_eq!(probe.packets.len(), 17);
        let serialization = |i: usize| cfg.tor_link.serialization(probe.packets[i].1.wire_bytes());
        let mut on_wire = SimTime::ZERO + cfg.ltl_tx_latency;
        for (i, (at, ..)) in probe.packets.iter().enumerate() {
            on_wire += serialization(i);
            assert_eq!(*at, on_wire + cfg.tor_link.propagation, "frame {i}");
        }
        // The two sends, the credit timer and nothing else: no
        // retransmission deadline has come due yet.
        assert_eq!(e.events_processed(), 2 + 1 + 17);
    }

    /// Two shells wired back-to-back through their TOR ports (no switch):
    /// the minimal LTL end-to-end rig.
    fn back_to_back() -> (
        Engine<Msg>,
        ComponentId,
        ComponentId,
        ComponentId,
        SendConnId,
    ) {
        back_to_back_with(Probe::default())
    }

    /// [`back_to_back`] with `consumer` in place of the probe.
    fn back_to_back_with(
        consumer: impl Component<Msg>,
    ) -> (
        Engine<Msg>,
        ComponentId,
        ComponentId,
        ComponentId,
        SendConnId,
    ) {
        let mut e: Engine<Msg> = Engine::new(7);
        let a_id = ComponentId::from_raw(0);
        let b_id = ComponentId::from_raw(1);
        let consumer_id = ComponentId::from_raw(2);
        let mut a = Shell::new(addr(1), ShellConfig::default());
        let mut b = Shell::new(addr(2), ShellConfig::default());
        let rx = ShellConfig::default().ltl_rx_latency;
        a.connect_tor(b_id, PORT_TOR, Some(rx));
        b.connect_tor(a_id, PORT_TOR, Some(rx));
        a.set_consumer(consumer_id);
        b.set_consumer(consumer_id);
        let b_recv = b.ltl_mut().add_recv(addr(1));
        let a_send = a.ltl_mut().add_send(addr(2), b_recv);
        e.add_component(a);
        e.add_component(b);
        e.add_component(consumer);
        (e, a_id, b_id, consumer_id, a_send)
    }

    #[test]
    fn end_to_end_ltl_message_delivery() {
        let (mut e, a, _b, consumer, a_send) = back_to_back();
        e.schedule(
            SimTime::ZERO,
            a,
            Msg::LtlSend(LtlSend {
                conn: a_send,
                vc: 1,
                payload: Bytes::from_static(b"hello fpga"),
            }),
        );
        e.run_to_idle();
        let probe = e.component::<Probe>(consumer).unwrap();
        assert_eq!(probe.deliveries.len(), 1);
        let (t, d) = &probe.deliveries[0];
        assert_eq!(d.payload.as_ref(), b"hello fpga");
        assert_eq!(d.src, addr(1));
        assert_eq!(d.vc, 1);
        // One-way latency: tx pipeline + wire + rx pipeline, under 2us
        // back-to-back.
        assert!(*t < SimTime::from_micros(2), "delivery at {t}");
        // Sender saw the ACK and retired the frame.
        let shell_a = e.component::<Shell>(a).unwrap();
        assert_eq!(shell_a.ltl().in_flight(), 0);
    }

    /// The typed command, the boxed `ShellCmd::LtlSend` senders outside
    /// the workspace still use, and a boxed `LtlSend` all send a message.
    #[test]
    fn every_form_of_the_send_command_is_served() {
        let (mut e, a, _b, consumer, conn) = back_to_back();
        let payload = Bytes::from_static(b"one message per form");
        let send = |vc| LtlSend {
            conn,
            vc,
            payload: payload.clone(),
        };
        // Bound first: CI's lint forbids boxing it inline in this tree.
        let boxed = ShellCmd::LtlSend {
            conn,
            vc: 2,
            payload: payload.clone(),
        };
        for (at, msg) in [
            (0, Msg::LtlSend(send(1))),
            (10, Msg::custom(boxed)),
            (20, Msg::custom(send(3))),
        ] {
            e.schedule(SimTime::from_micros(at), a, msg);
        }
        e.run_to_idle();
        let probe = e.component::<Probe>(consumer).unwrap();
        let vcs: Vec<u8> = probe.deliveries.iter().map(|(_, d)| d.vc).collect();
        assert_eq!(vcs, [1, 2, 3]);
    }

    /// Keeps every other delivery and drops the rest.
    #[derive(Default)]
    struct KeepEveryOther {
        seen: usize,
        kept: Vec<Bytes>,
    }

    impl Component<Msg> for KeepEveryOther {
        fn on_message(&mut self, msg: Msg, _: &mut Context<'_, Msg>) {
            if let Ok(d) = msg.downcast::<LtlDeliver>() {
                if self.seen.is_multiple_of(2) {
                    self.kept.push(d.payload);
                }
                self.seen += 1;
            }
        }
    }

    /// A delivered payload is a view into the sender's wire buffer, which
    /// the sender refills for a later message once nothing else holds it:
    /// deliveries a consumer keeps read the same however many messages
    /// follow, while the ones it drops free their buffers for reuse.
    #[test]
    fn kept_deliveries_survive_the_senders_next_messages() {
        let (mut e, a, _b, consumer, conn) = back_to_back_with(KeepEveryOther::default());
        let message = |i: u64| Bytes::from(format!("message {i:02}, long enough for the heap"));
        for i in 0..20 {
            let at = SimTime::from_micros(20 * i);
            e.schedule(at, a, ltl_send(conn, message(i)));
        }
        e.run_to_idle();
        let keeper = e.component::<KeepEveryOther>(consumer).unwrap();
        assert_eq!(keeper.seen, 20);
        let expected: Vec<Bytes> = (0..20).step_by(2).map(message).collect();
        assert_eq!(keeper.kept, expected);
    }

    #[test]
    fn tenant_caps_drop_over_budget_sends() {
        let (mut e, a, _b, consumer, a_send) = back_to_back();
        // Tenant 3 owns connection `a_send` and gets 2 LTL credits per
        // 10 µs window with ample bandwidth.
        e.schedule(
            SimTime::ZERO,
            a,
            Msg::custom(ShellCmd::SetTenantCaps {
                tenant: TenantId(3),
                caps: Some(TenantCaps {
                    er_mbps: 40_000,
                    ltl_credits: 2,
                }),
            }),
        );
        e.schedule(
            SimTime::ZERO,
            a,
            Msg::custom(ShellCmd::BindTenant {
                conn: a_send,
                tenant: Some(TenantId(3)),
            }),
        );
        // Four sends inside one window: two admitted, two dropped.
        for i in 0..4u64 {
            e.schedule(
                SimTime::from_nanos(100 + i),
                a,
                ltl_send(a_send, Bytes::from_static(b"capped")),
            );
        }
        // A fifth send in the next window is admitted again.
        e.schedule(
            SimTime::from_micros(15),
            a,
            ltl_send(a_send, Bytes::from_static(b"capped")),
        );
        e.run_to_idle();
        let shell_a = e.component::<Shell>(a).unwrap();
        assert_eq!(shell_a.stats_view().tenant_cap_drops, 2);
        assert_eq!(shell_a.tenant_caps().total_drops(), 2);
        let probe = e.component::<Probe>(consumer).unwrap();
        assert_eq!(probe.deliveries.len(), 3);
    }

    #[test]
    fn unbinding_tenant_restores_unrestricted_sends() {
        let (mut e, a, _b, consumer, a_send) = back_to_back();
        e.schedule(
            SimTime::ZERO,
            a,
            Msg::custom(ShellCmd::SetTenantCaps {
                tenant: TenantId(1),
                caps: Some(TenantCaps {
                    er_mbps: 1,
                    ltl_credits: 0,
                }),
            }),
        );
        e.schedule(
            SimTime::ZERO,
            a,
            Msg::custom(ShellCmd::BindTenant {
                conn: a_send,
                tenant: Some(TenantId(1)),
            }),
        );
        e.schedule(
            SimTime::from_nanos(50),
            a,
            ltl_send(a_send, Bytes::from_static(b"blocked")),
        );
        e.schedule(
            SimTime::from_nanos(60),
            a,
            Msg::custom(ShellCmd::BindTenant {
                conn: a_send,
                tenant: None,
            }),
        );
        e.schedule(
            SimTime::from_nanos(70),
            a,
            ltl_send(a_send, Bytes::from_static(b"flows")),
        );
        e.run_to_idle();
        let shell_a = e.component::<Shell>(a).unwrap();
        assert_eq!(shell_a.stats_view().tenant_cap_drops, 1);
        let probe = e.component::<Probe>(consumer).unwrap();
        assert_eq!(probe.deliveries.len(), 1);
        assert_eq!(probe.deliveries[0].1.payload.as_ref(), b"flows");
    }

    #[test]
    fn back_to_back_rtt_is_about_two_pipelines_plus_wire() {
        let (mut e, a, _b, _c, a_send) = back_to_back();
        for i in 0..10u64 {
            e.schedule(
                SimTime::from_micros(i * 100),
                a,
                ltl_send(a_send, Bytes::from_static(b"probe")),
            );
        }
        e.run_to_idle();
        let rtts = e.component::<Shell>(a).unwrap().ltl().rtts();
        assert_eq!(rtts.count(), 10);
        let p50 = rtts.percentile(50.0).unwrap();
        // tx 460 + wire ~120 + rx 450, times two for the ACK path,
        // plus serialization: ~2.1us. No switch in this rig.
        assert!(p50 > 1_800 && p50 < 2_500, "rtt {p50}ns");
    }

    #[test]
    fn connection_failure_reported_to_consumer() {
        // Shell A's TOR port is cabled to a black hole (the consumer probe),
        // so nothing ever ACKs.
        let mut e: Engine<Msg> = Engine::new(9);
        let a_id = ComponentId::from_raw(0);
        let probe_id = ComponentId::from_raw(1);
        let mut a = Shell::new(addr(1), ShellConfig::default());
        a.connect_tor(probe_id, PortId(0), None);
        a.set_consumer(probe_id);
        let a_send = a.ltl_mut().add_send(addr(2), 0);
        e.add_component(a);
        e.add_component(Probe::default());
        e.schedule(
            SimTime::ZERO,
            a_id,
            ltl_send(a_send, Bytes::from_static(b"into the void")),
        );
        e.run_until(SimTime::from_millis(10));
        let probe = e.component::<Probe>(probe_id).unwrap();
        assert_eq!(probe.failures.len(), 1);
        assert_eq!(probe.failures[0].remote, addr(2));
        // 9 transmissions: original + 8 retries.
        assert!(probe.packets.len() >= 9);
    }

    #[test]
    fn corrupt_frames_are_discarded_at_the_mac() {
        let (mut e, shell, nic, _tor) = rig();
        let mut pkt = host_pkt(5, 1);
        pkt.corrupt = true;
        e.schedule(SimTime::ZERO, shell, Msg::packet(pkt, PORT_TOR));
        e.run_to_idle();
        assert!(e.component::<Probe>(nic).unwrap().packets.is_empty());
        let stats = e.component::<Shell>(shell).unwrap().stats_view();
        assert_eq!(stats.corrupt_drops, 1);
        assert_eq!(stats.bridged_in, 0);
    }

    #[test]
    fn injected_ltl_loss_is_recovered_by_retransmission() {
        let (mut e, a, _b, consumer, a_send) = back_to_back();
        e.schedule(SimTime::ZERO, a, Msg::custom(ShellCmd::SetLtlLossRate(0.3)));
        for i in 0..20u64 {
            e.schedule(
                SimTime::from_micros(1 + i * 200),
                a,
                ltl_send(a_send, Bytes::from_static(b"lossy")),
            );
        }
        e.run_to_idle();
        let probe = e.component::<Probe>(consumer).unwrap();
        assert_eq!(probe.deliveries.len(), 20, "exactly-once despite loss");
        assert!(probe.failures.is_empty());
        let shell_a = e.component::<Shell>(a).unwrap();
        assert!(shell_a.stats_view().injected_drops > 0);
        assert!(shell_a.ltl().stats_view().retransmits > 0);
    }

    #[test]
    fn hung_role_loses_deliveries_until_recovery() {
        let (mut e, a, b, consumer, a_send) = back_to_back();
        e.schedule(
            SimTime::ZERO,
            b,
            Msg::custom(ShellCmd::HangRole {
                duration: SimDuration::from_micros(100),
            }),
        );
        // During the hang: ACKed by the shell, lost by the role.
        e.schedule(
            SimTime::from_micros(1),
            a,
            ltl_send(a_send, Bytes::from_static(b"wedged")),
        );
        // After recovery: delivered normally.
        e.schedule(
            SimTime::from_micros(200),
            a,
            ltl_send(a_send, Bytes::from_static(b"recovered")),
        );
        e.run_to_idle();
        let probe = e.component::<Probe>(consumer).unwrap();
        assert_eq!(probe.deliveries.len(), 1);
        assert_eq!(probe.deliveries[0].1.payload.as_ref(), b"recovered");
        let shell_b = e.component::<Shell>(b).unwrap();
        assert_eq!(shell_b.stats_view().hang_drops, 1);
        assert!(!shell_b.role_hung());
        // The sender saw ACKs for both messages: the hang is invisible to
        // the transport, which is exactly why app-level health checks exist.
        assert_eq!(e.component::<Shell>(a).unwrap().ltl().in_flight(), 0);
    }

    #[test]
    fn tap_can_rewrite_packets() {
        struct XorTap;
        impl NetworkTap for XorTap {
            fn outbound(&mut self, mut pkt: Packet, _now: SimTime) -> TapAction {
                let flipped: Vec<u8> = pkt.payload.iter().map(|b| b ^ 0xFF).collect();
                pkt.payload = Bytes::from(flipped);
                TapAction::Forward {
                    pkt,
                    delay: SimDuration::from_micros(1),
                }
            }
            fn inbound(&mut self, pkt: Packet, _now: SimTime) -> TapAction {
                TapAction::pass(pkt)
            }
        }
        let (mut e, shell, _nic, tor) = rig();
        e.component_mut::<Shell>(shell)
            .unwrap()
            .set_tap(Box::new(XorTap));
        e.schedule(SimTime::ZERO, shell, Msg::packet(host_pkt(1, 5), PORT_NIC));
        e.run_to_idle();
        let tor_probe = e.component::<Probe>(tor).unwrap();
        assert_eq!(tor_probe.packets.len(), 1);
        let flipped: Vec<u8> = b"host traffic".iter().map(|b| b ^ 0xFF).collect();
        assert_eq!(tor_probe.packets[0].1.payload.as_ref(), flipped.as_slice());
        // The tap's processing delay is visible in the arrival time.
        assert!(tor_probe.packets[0].0 >= SimTime::from_micros(1));
    }

    #[test]
    fn tap_can_drop_packets() {
        struct DropTap;
        impl NetworkTap for DropTap {
            fn outbound(&mut self, _pkt: Packet, _now: SimTime) -> TapAction {
                TapAction::Drop
            }
            fn inbound(&mut self, pkt: Packet, _now: SimTime) -> TapAction {
                TapAction::pass(pkt)
            }
        }
        let (mut e, shell, _nic, tor) = rig();
        e.component_mut::<Shell>(shell)
            .unwrap()
            .set_tap(Box::new(DropTap));
        e.schedule(SimTime::ZERO, shell, Msg::packet(host_pkt(1, 5), PORT_NIC));
        e.run_to_idle();
        assert!(e.component::<Probe>(tor).unwrap().packets.is_empty());
        assert_eq!(
            e.component::<Shell>(shell).unwrap().stats_view().tap_drops,
            1
        );
    }

    /// A partial reconfiguration swaps the role, so its tap is bypassed
    /// while the bridge keeps forwarding: host frames pass both ways
    /// during the load, through a tap that drops everything, and that tap
    /// drops them again once the load is done.
    #[test]
    fn a_partial_load_bypasses_the_role_tap() {
        struct DropAll;
        impl NetworkTap for DropAll {
            fn outbound(&mut self, _pkt: Packet, _now: SimTime) -> TapAction {
                TapAction::Drop
            }
            fn inbound(&mut self, _pkt: Packet, _now: SimTime) -> TapAction {
                TapAction::Drop
            }
        }
        let (mut e, shell, nic, tor) = rig();
        e.component_mut::<Shell>(shell)
            .unwrap()
            .set_tap(Box::new(DropAll));
        let reconfig = ShellCmd::Reconfigure { partial: true };
        e.schedule(SimTime::ZERO, shell, Msg::custom(reconfig));
        let load_done = SimTime::ZERO + ShellConfig::default().partial_reconfig;
        for at in [
            SimTime::from_millis(1),
            load_done + SimDuration::from_millis(1),
        ] {
            e.schedule(at, shell, Msg::packet(host_pkt(1, 5), PORT_NIC));
            e.schedule(at, shell, Msg::packet(host_pkt(5, 1), PORT_TOR));
        }
        e.run_until(load_done);
        let received = |e: &Engine<Msg>, probe| e.component::<Probe>(probe).unwrap().packets.len();
        assert_eq!((received(&e, tor), received(&e, nic)), (1, 1));
        e.run_to_idle();
        assert_eq!((received(&e, tor), received(&e, nic)), (1, 1));
        let stats = e.component::<Shell>(shell).unwrap().stats_view();
        assert_eq!(
            (stats.bridged_out, stats.bridged_in, stats.tap_drops),
            (1, 1, 2)
        );
    }

    #[test]
    fn passthrough_and_ranking_traffic_do_not_interact() {
        // "The passthrough traffic and the search ranking acceleration have
        // no performance interaction": bridged host traffic on the BE class
        // and LTL traffic on the lossless class share the TOR link but the
        // LTL class has priority; both make progress.
        let (mut e, a, _b, consumer, a_send) = back_to_back();
        for i in 0..50u64 {
            e.schedule(
                SimTime::from_nanos(i * 300),
                a,
                Msg::packet(host_pkt(1, 9), PORT_NIC),
            );
        }
        e.schedule(
            SimTime::from_micros(2),
            a,
            ltl_send(a_send, Bytes::from(vec![0u8; 4000])),
        );
        e.run_to_idle();
        let probe = e.component::<Probe>(consumer).unwrap();
        assert_eq!(probe.deliveries.len(), 1);
        let shell_a = e.component::<Shell>(a).unwrap();
        assert_eq!(shell_a.stats_view().bridged_out, 50);
    }
}
