//! Output-queued Ethernet switch with per-class queues, strict-priority
//! scheduling, RED/ECN marking (the DC-QCN congestion point) and IEEE
//! 802.1Qbb priority flow control for lossless classes.
//!
//! Switches route hierarchically from their position in the three-tier
//! fabric ([`SwitchRole`] + [`FabricShape`]): a TOR forwards to a local
//! host port or its pod uplink, an aggregation (L1) switch to a rack or an
//! ECMP-selected spine, and a spine (L2) switch to a pod. No routing tables
//! are needed because [`crate::NodeAddr`] encodes the hierarchy.

use std::collections::VecDeque;

use dcsim::{Component, ComponentId, Context, SimDuration, SimTime};
use telemetry::{MetricSource, MetricVisitor, TrackTracer};

use crate::addr::{AddrError, NodeAddr};
use crate::link::{FreeTimer, LinkParams, LinkTx};
use crate::msg::{Msg, NetEvent, PortId};
use crate::packet::{Ecn, Packet, TrafficClass, LTL_UDP_PORT};

/// Where a switch sits in the fabric; determines its routing function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchRole {
    /// Top-of-rack (L0): ports `0..hosts_per_tor` face hosts, the last port
    /// is the uplink to the pod aggregation switch.
    Tor {
        /// Pod this rack belongs to.
        pod: u16,
        /// Rack index within the pod.
        tor: u16,
    },
    /// Pod aggregation (L1): ports `0..tors_per_pod` face racks, the
    /// remaining `spines` ports face the L2 layer.
    Agg {
        /// Pod this switch aggregates.
        pod: u16,
    },
    /// Spine (L2): one port per pod.
    Spine {
        /// Index among the spine switches.
        index: u16,
    },
}

/// The switch's stable name — `tor00.01`, `agg00`, `spine00` — used for
/// trace tracks and, under `fabric/`, telemetry paths.
impl core::fmt::Display for SwitchRole {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            SwitchRole::Tor { pod, tor } => write!(f, "tor{pod:02}.{tor:02}"),
            SwitchRole::Agg { pod } => write!(f, "agg{pod:02}"),
            SwitchRole::Spine { index } => write!(f, "spine{index:02}"),
        }
    }
}

impl SwitchRole {
    /// The [`Display`](core::fmt::Display) name as an owned string.
    pub fn label(&self) -> String {
        self.to_string()
    }
}

/// Dimensions of the three-tier fabric (defaults match the paper: 24 hosts
/// per TOR, pods of 960 machines, spines connecting ~250k hosts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricShape {
    /// Hosts cabled to each TOR switch.
    pub hosts_per_tor: u16,
    /// Racks in each pod.
    pub tors_per_pod: u16,
    /// Number of pods.
    pub pods: u16,
    /// Number of spine switches (ECMP width at L1).
    pub spines: u16,
}

impl FabricShape {
    /// Total host slots in the fabric.
    pub fn total_hosts(&self) -> usize {
        self.hosts_per_tor as usize * self.tors_per_pod as usize * self.pods as usize
    }

    /// Hosts in one pod.
    pub fn hosts_per_pod(&self) -> usize {
        self.hosts_per_tor as usize * self.tors_per_pod as usize
    }

    /// Builds the address for `(pod, tor, host)`, rejecting coordinates
    /// outside this shape (not merely outside the packed encoding — see
    /// [`NodeAddr::try_new`] for that weaker check).
    pub fn addr(&self, pod: u16, tor: u16, host: u16) -> Result<NodeAddr, AddrError> {
        if pod >= self.pods {
            return Err(AddrError::Pod {
                pod,
                limit: self.pods,
            });
        }
        if tor >= self.tors_per_pod {
            return Err(AddrError::Tor {
                tor,
                limit: self.tors_per_pod,
            });
        }
        if host >= self.hosts_per_tor {
            return Err(AddrError::Host {
                host,
                limit: self.hosts_per_tor,
            });
        }
        NodeAddr::try_new(pod, tor, host)
    }

    /// Checks that `addr` names a host slot inside this shape.
    pub fn validate(&self, addr: NodeAddr) -> Result<(), AddrError> {
        self.addr(addr.pod, addr.tor, addr.host).map(|_| ())
    }

    /// `true` if `addr` names a host slot inside this shape.
    pub fn contains(&self, addr: NodeAddr) -> bool {
        self.validate(addr).is_ok()
    }

    /// Iterates over every host slot address in the fabric.
    pub fn addresses(&self) -> impl Iterator<Item = NodeAddr> + '_ {
        let shape = *self;
        (0..shape.pods).flat_map(move |p| {
            (0..shape.tors_per_pod)
                .flat_map(move |t| (0..shape.hosts_per_tor).map(move |h| NodeAddr::new(p, t, h)))
        })
    }
}

impl Default for FabricShape {
    fn default() -> Self {
        FabricShape {
            hosts_per_tor: 24,
            tors_per_pod: 40,
            pods: 1,
            spines: 4,
        }
    }
}

/// RED/ECN marking thresholds for the congestion point.
#[derive(Debug, Clone, Copy)]
pub struct EcnConfig {
    /// Queue depth below which nothing is marked.
    pub kmin_bytes: u64,
    /// Queue depth above which every ECN-capable packet is marked.
    pub kmax_bytes: u64,
    /// Marking probability at `kmax`.
    pub pmax: f64,
}

impl Default for EcnConfig {
    fn default() -> Self {
        EcnConfig {
            kmin_bytes: 100 * 1024,
            kmax_bytes: 400 * 1024,
            pmax: 0.2,
        }
    }
}

/// PFC thresholds (per ingress port, per lossless class).
#[derive(Debug, Clone, Copy)]
pub struct PfcConfig {
    /// Buffered bytes above which XOFF is sent upstream.
    pub xoff_bytes: u64,
    /// Buffered bytes below which XON is sent.
    pub xon_bytes: u64,
}

impl Default for PfcConfig {
    fn default() -> Self {
        PfcConfig {
            xoff_bytes: 256 * 1024,
            xon_bytes: 128 * 1024,
        }
    }
}

/// Lognormal per-packet latency jitter, used to model contention inside
/// L1/L2 switches from background datacenter traffic that we do not
/// simulate packet-by-packet.
#[derive(Debug, Clone, Copy)]
pub struct Jitter {
    /// Median of the extra latency, nanoseconds.
    pub median_ns: f64,
    /// Lognormal sigma; larger values fatten the 99.9th-percentile tail.
    pub sigma: f64,
}

/// Static switch configuration.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Fixed pipeline (cut-through) latency added to every forwarded packet.
    pub base_latency: SimDuration,
    /// Optional contention jitter.
    pub jitter: Option<Jitter>,
    /// ECN marking configuration (applies to ECN-capable packets).
    pub ecn: Option<EcnConfig>,
    /// PFC configuration for lossless classes.
    pub pfc: Option<PfcConfig>,
    /// Bitmask of lossless traffic classes (bit *i* = class *i*).
    pub lossless_mask: u8,
    /// Per-egress-queue drop threshold for lossy classes.
    pub queue_capacity_bytes: u64,
    /// Link parameters used for every port of this switch.
    pub link: LinkParams,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            base_latency: SimDuration::from_nanos(300),
            jitter: None,
            ecn: Some(EcnConfig::default()),
            pfc: Some(PfcConfig::default()),
            lossless_mask: 1 << TrafficClass::LTL.index(),
            queue_capacity_bytes: 1024 * 1024,
            link: LinkParams::default(),
        }
    }
}

impl SwitchConfig {
    /// Sets the fixed pipeline latency.
    pub fn with_base_latency(mut self, latency: SimDuration) -> Self {
        self.base_latency = latency;
        self
    }

    /// Enables per-packet contention jitter.
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// Sets the RED/ECN marking thresholds.
    pub fn with_ecn(mut self, ecn: EcnConfig) -> Self {
        self.ecn = Some(ecn);
        self
    }

    /// Sets the PFC thresholds.
    pub fn with_pfc(mut self, pfc: PfcConfig) -> Self {
        self.pfc = Some(pfc);
        self
    }

    /// Sets the per-egress-queue drop threshold for lossy classes.
    pub fn with_queue_capacity_bytes(mut self, bytes: u64) -> Self {
        self.queue_capacity_bytes = bytes;
        self
    }

    /// Sets the link parameters used for every port.
    pub fn with_link(mut self, link: LinkParams) -> Self {
        self.link = link;
        self
    }
}

/// Forwarding statistics, readable after a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchStats {
    /// Frames received.
    pub rx_frames: u64,
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Frames dropped (lossy classes only).
    pub dropped: u64,
    /// Frames whose ECN field was set to congestion-experienced here.
    pub ecn_marked: u64,
    /// XOFF pause frames emitted.
    pub pauses_sent: u64,
    /// XON resume frames emitted.
    pub resumes_sent: u64,
    /// Frames that arrived for a port with no peer connected.
    pub no_route: u64,
    /// TTL-expired frames.
    pub ttl_expired: u64,
    /// Frames lost to an administratively/physically down link
    /// ([`SwitchCmd::SetLinkUp`]), including frames flushed from the
    /// egress queue when the link went down.
    pub link_down_drops: u64,
    /// Frames lost because the switch was crashed ([`SwitchCmd::Crash`]).
    pub crash_drops: u64,
    /// Frames whose FCS was corrupted on egress
    /// ([`SwitchCmd::CorruptNext`]).
    pub corrupted: u64,
    /// Crash/reboot cycles this switch has been through.
    pub crashes: u64,
}

/// Packed, so that a [`Cable`] takes 11 bytes instead of 24: that pays
/// for the 16-byte [`FreeTimer`] that replaced each port's `busy` flag,
/// and a fabric's thousands of ports cost the heap they did before.
#[derive(Debug, Clone, Copy)]
#[repr(Rust, packed)]
struct Peer {
    comp: ComponentId,
    port: PortId,
}

/// What a port is cabled to. The variant is the byte an `Option<Peer>`
/// spends on its tag anyway, so marking a shell costs a port nothing.
#[derive(Debug, Clone, Copy)]
enum Cable {
    /// Nothing: frames routed here count as `no_route`.
    Open,
    /// A component that takes every frame as a [`NetEvent::Packet`].
    Peer(Peer),
    /// A shell with an LTL receive stage: LTL frames enter that stage
    /// directly, [`Switch::ltl_rx`] after their wire arrival, as
    /// [`Msg::LtlRx`]; other frames arrive as packets.
    Shell(Peer),
}

impl Cable {
    fn peer(self) -> Option<Peer> {
        match self {
            Cable::Open => None,
            Cable::Peer(peer) | Cable::Shell(peer) => Some(peer),
        }
    }
}

#[derive(Debug)]
struct Queued {
    pkt: Packet,
    ingress: PortId,
    extra: SimDuration,
}

struct Port {
    cable: Cable,
    tx: LinkTx,
    queues: [VecDeque<Queued>; TrafficClass::COUNT],
    queued_bytes: [u64; TrafficClass::COUNT],
    tx_paused: [bool; TrafficClass::COUNT],
    /// Serialization-done timer of the frame on `tx`'s wire; the port is
    /// busy until it fires (or would have fired, while it is deferred).
    free: FreeTimer,
    up: bool,
    corrupt_pending: u32,
    ingress_bytes: [u64; TrafficClass::COUNT],
    pause_sent: [bool; TrafficClass::COUNT],
    /// Cumulative frames put on the wire per class (never reset, so
    /// invariant checkers can detect transmission during a PFC pause).
    tx_frames: [u64; TrafficClass::COUNT],
    /// Cross-fidelity boundary pressure: queue bytes this egress port
    /// would be holding from flow-level aggregate (background) traffic
    /// that is not simulated packet-by-packet. Counted into the RED/ECN
    /// depth so packet-level flows see the congestion, but never into the
    /// tail-drop test or transmission timing — the aggregate model marks,
    /// it does not destroy. Set by [`SwitchCmd::SetBackgroundLoad`];
    /// persists until the next update.
    background_bytes: u64,
    /// Arrival time at the peer of the last frame sent on this port. A
    /// frame never arrives before it: the egress is FIFO, so contention
    /// jitter may delay a frame but never lets it overtake.
    last_arrival: SimTime,
}

impl Port {
    fn new(link: LinkParams) -> Self {
        Port {
            cable: Cable::Open,
            tx: LinkTx::new(link),
            queues: Default::default(),
            queued_bytes: [0; TrafficClass::COUNT],
            tx_paused: [false; TrafficClass::COUNT],
            free: FreeTimer::Idle,
            up: true,
            corrupt_pending: 0,
            ingress_bytes: [0; TrafficClass::COUNT],
            pause_sent: [false; TrafficClass::COUNT],
            tx_frames: [0; TrafficClass::COUNT],
            background_bytes: 0,
            last_arrival: SimTime::ZERO,
        }
    }

    /// Drops all buffered frames and clears link-local protocol state
    /// (PFC pause bookkeeping), as a real port does on link-down or
    /// switch reset. Returns the number of frames flushed.
    fn flush(&mut self) -> u64 {
        let mut flushed = 0;
        for q in &mut self.queues {
            flushed += q.len() as u64;
            q.clear();
        }
        self.queued_bytes = [0; TrafficClass::COUNT];
        self.tx_paused = [false; TrafficClass::COUNT];
        self.ingress_bytes = [0; TrafficClass::COUNT];
        self.pause_sent = [false; TrafficClass::COUNT];
        self.corrupt_pending = 0;
        flushed
    }

    /// Arms the free-timer (token: this port, `egress`) iff a frame of any
    /// class is queued behind the one on the wire. With nothing queued the
    /// timer's handler would clear the busy state and find nothing to
    /// send, so the event is never enqueued. Frames of paused classes
    /// count too: the handler then finds nothing eligible, as it always
    /// did, and no pause state has to be tracked here.
    fn arm_free_if_queued(&mut self, egress: PortId, ctx: &mut Context<'_, Msg>) {
        if self.queues.iter().any(|q| !q.is_empty()) {
            self.free.arm(&self.tx, egress.0 as u64, ctx);
        }
    }
}

/// Timer token used for the crash-reboot timer; port serialization timers
/// use the port index, which can never reach this sentinel.
const REBOOT_TOKEN: u64 = u64::MAX;

/// A switch's ports, one slot per nominal port. Most nominal ports of a
/// fabric switch are never cabled (a spine keeps one per pod, a TOR one
/// per host slot), so a slot holds a boxed [`Port`] only once its port is
/// cabled or written to. Until then it is a null pointer, and the port
/// reads as a fresh one: up, open, nothing queued or paused, no frames
/// sent, no background pressure.
///
/// Boxed, not packed into a vector of the ports that exist: grown by one
/// port per cable, that vector copies every earlier port each time
/// (DESIGN.md, "Switch port state").
struct Ports(Box<[Option<Box<Port>>]>);

impl Ports {
    fn new(count: usize) -> Self {
        Ports(std::iter::repeat_with(|| None).take(count).collect())
    }

    /// `port`'s state, or `None` if it holds none yet.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    fn get(&self, port: PortId) -> Option<&Port> {
        self.0[port.index()].as_deref()
    }

    fn get_mut(&mut self, port: PortId) -> Option<&mut Port> {
        self.0[port.index()].as_deref_mut()
    }

    /// `port`'s state, created as [`Port::new`] on the port's first write.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    fn materialize(&mut self, port: PortId, link: LinkParams) -> &mut Port {
        self.0[port.index()].get_or_insert_with(|| Box::new(Port::new(link)))
    }

    /// The ports that hold state, in [`PortId`] order.
    fn iter(&self) -> impl Iterator<Item = &Port> {
        self.0.iter().flatten().map(|p| &**p)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Port> {
        self.0.iter_mut().flatten().map(|p| &mut **p)
    }
}

/// Operator commands a switch accepts as [`Msg::Switch`] (used by
/// failure-injection experiments to make a node go dark mid-run, and by
/// the flow model to publish background pressure).
#[derive(Debug, Clone, Copy)]
pub enum SwitchCmd {
    /// Uncable a port: packets routed to it count as `no_route` and
    /// vanish, exactly like a dead endpoint.
    Disconnect(PortId),
    /// Takes the port's link down (`up = false`) or back up. While down,
    /// buffered and newly routed frames are lost (`link_down_drops`) and
    /// PFC state for the link resets, as on a physical cable pull.
    SetLinkUp {
        /// Port whose link changes state.
        port: PortId,
        /// New link state.
        up: bool,
    },
    /// Crashes the whole switch: every buffered frame is lost, all
    /// protocol state resets, and frames arriving before the reboot
    /// completes are dropped (`crash_drops`).
    Crash {
        /// Time until the switch has rebooted and forwards again.
        reboot_after: SimDuration,
    },
    /// Corrupts the FCS of the next `frames` frames leaving `port`
    /// (a flaky optic / SEU burst): receivers must discard them.
    CorruptNext {
        /// Egress port with the flaky transmitter.
        port: PortId,
        /// Number of frames to corrupt.
        frames: u32,
    },
    /// Cross-fidelity boundary adapter: declares that flow-level aggregate
    /// background traffic is keeping `bytes` of queue occupancy on egress
    /// `port`. The pressure is added to the RED/ECN marking depth seen by
    /// packet-level traffic through that port (and exported as the
    /// `background_bytes` gauge) but never drops, delays or pauses
    /// packet-level frames — the deterministic boundary contract between
    /// `dcnet::flowsim` and the packet model. Replaces the port's previous
    /// value; `bytes = 0` clears it.
    SetBackgroundLoad {
        /// Egress port the aggregate traffic shares.
        port: PortId,
        /// Queue-occupancy estimate in bytes.
        bytes: u64,
    },
}

/// An output-queued switch component.
pub struct Switch {
    role: SwitchRole,
    shape: FabricShape,
    cfg: SwitchConfig,
    /// Precomputed `(mu, sigma)` for the contention-jitter sampler, with
    /// `mu = ln(median_ns)`; keeps the per-packet path free of the `ln`
    /// of a configuration constant.
    jitter_ln: Option<(f64, f64)>,
    ports: Ports,
    /// The LTL receive latency the shells cabled here declared
    /// ([`Switch::connect_shell`]). One per switch, not one per port:
    /// every shell of a cluster has the same pipeline.
    ltl_rx: SimDuration,
    crashed: bool,
    stats: SwitchStats,
    tracer: Option<TrackTracer>,
}

impl Switch {
    /// Creates a switch for `role` in a fabric of `shape`; the port count is
    /// derived from the role.
    pub fn new(role: SwitchRole, shape: FabricShape, cfg: SwitchConfig) -> Self {
        let ports = match role {
            SwitchRole::Tor { .. } => shape.hosts_per_tor as usize + 1,
            SwitchRole::Agg { .. } => shape.tors_per_pod as usize + shape.spines as usize,
            SwitchRole::Spine { .. } => shape.pods as usize,
        };
        Switch {
            role,
            shape,
            ports: Ports::new(ports),
            jitter_ln: cfg.jitter.map(|j| (j.median_ns.ln(), j.sigma)),
            cfg,
            ltl_rx: SimDuration::ZERO,
            crashed: false,
            stats: SwitchStats::default(),
            tracer: None,
        }
    }

    /// Attaches a flight-recorder track; every forwarded or dropped frame
    /// emits an instant event onto it.
    pub fn set_tracer(&mut self, tracer: TrackTracer) {
        self.tracer = Some(tracer);
    }

    /// The switch's role in the fabric.
    pub fn role(&self) -> SwitchRole {
        self.role
    }

    /// Number of ports, cabled or not.
    pub fn port_count(&self) -> usize {
        self.ports.0.len()
    }

    /// Forwarding statistics, by reference. The registry view via
    /// [`telemetry::MetricSource`] remains the primary read path; this
    /// accessor serves event-granularity invariant checkers that need
    /// the raw counters between events without a snapshot allocation.
    pub fn stats_view(&self) -> &SwitchStats {
        &self.stats
    }

    /// Connects `port` to a peer component's port. Must be called for every
    /// cabled port before traffic flows.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn connect(&mut self, port: PortId, peer_comp: ComponentId, peer_port: PortId) {
        self.ports.materialize(port, self.cfg.link).cable = Cable::Peer(Peer {
            comp: peer_comp,
            port: peer_port,
        });
    }

    /// Connects `port` to a shell whose LTL receive pipeline takes
    /// `ltl_rx` from a frame's last bit to its LTL engine. LTL frames
    /// leaving `port` then enter that pipeline's end directly: one
    /// [`Msg::LtlRx`] event at wire arrival + `ltl_rx`, where a packet
    /// and the shell's own hand-off were two. Frames of other protocols
    /// arrive as packets, as through [`Switch::connect`].
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range, or if a shell already cabled to
    /// this switch declared a different latency.
    pub fn connect_shell(
        &mut self,
        port: PortId,
        shell: ComponentId,
        shell_port: PortId,
        ltl_rx: SimDuration,
    ) {
        let shells = self
            .ports
            .iter()
            .any(|p| matches!(p.cable, Cable::Shell(_)));
        assert!(
            !shells || self.ltl_rx == ltl_rx,
            "{}: shells declared LTL receive latencies {} and {}",
            self.role,
            self.ltl_rx,
            ltl_rx
        );
        self.ltl_rx = ltl_rx;
        self.ports.materialize(port, self.cfg.link).cable = Cable::Shell(Peer {
            comp: shell,
            port: shell_port,
        });
    }

    /// Uncables `port` (see [`SwitchCmd::Disconnect`]).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn disconnect(&mut self, port: PortId) {
        if let Some(p) = self.ports.get_mut(port) {
            p.cable = Cable::Open;
        }
    }

    /// Whether `port`'s link is up (see [`SwitchCmd::SetLinkUp`]).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn link_up(&self, port: PortId) -> bool {
        self.ports.get(port).is_none_or(|p| p.up)
    }

    /// Whether the switch is currently crashed (see [`SwitchCmd::Crash`]).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    fn set_link_up(&mut self, port: PortId, up: bool) {
        if self.link_up(port) == up {
            return;
        }
        let p = self.ports.materialize(port, self.cfg.link);
        p.up = up;
        if !up {
            self.stats.link_down_drops += p.flush();
        }
    }

    fn crash(&mut self, reboot_after: SimDuration, ctx: &mut Context<'_, Msg>) {
        for p in self.ports.iter_mut() {
            self.stats.crash_drops += p.flush();
            p.free.clear();
        }
        self.crashed = true;
        self.stats.crashes += 1;
        ctx.timer_after(reboot_after, REBOOT_TOKEN);
    }

    /// Current queue depth in bytes for `port`/`class` (test/diagnostic).
    pub fn queue_bytes(&self, port: PortId, class: TrafficClass) -> u64 {
        self.ports
            .get(port)
            .map_or(0, |p| p.queued_bytes[class.index()])
    }

    /// Sets the flow-level background queue-occupancy pressure on egress
    /// `port` (see [`SwitchCmd::SetBackgroundLoad`]).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn set_background_bytes(&mut self, port: PortId, bytes: u64) {
        self.ports.materialize(port, self.cfg.link).background_bytes = bytes;
    }

    /// Current background pressure on egress `port`
    /// (see [`SwitchCmd::SetBackgroundLoad`]).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn background_bytes(&self, port: PortId) -> u64 {
        self.ports.get(port).map_or(0, |p| p.background_bytes)
    }

    /// Whether egress `port` is currently PFC-paused for `class`
    /// (test/diagnostic: lets invariant checkers assert that a paused
    /// class never transmits).
    pub fn tx_paused(&self, port: PortId, class: TrafficClass) -> bool {
        self.ports
            .get(port)
            .is_some_and(|p| p.tx_paused[class.index()])
    }

    /// Cumulative frames transmitted on `port` for `class` since the
    /// switch was built (test/diagnostic; survives crashes and flushes).
    pub fn tx_frames(&self, port: PortId, class: TrafficClass) -> u64 {
        self.ports
            .get(port)
            .map_or(0, |p| p.tx_frames[class.index()])
    }

    /// The switch configuration (queue depths, PFC thresholds).
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Whether `class` is configured lossless (PFC-protected, never
    /// dropped on queue overflow).
    pub fn class_is_lossless(&self, class: TrafficClass) -> bool {
        self.is_lossless(class)
    }

    /// Routes `dst` to an egress port. `flow` selects among ECMP paths.
    pub fn route(&self, dst: NodeAddr, flow: u64) -> PortId {
        match self.role {
            SwitchRole::Tor { pod, tor } => {
                if dst.pod == pod && dst.tor == tor {
                    PortId(dst.host)
                } else {
                    PortId(self.shape.hosts_per_tor)
                }
            }
            SwitchRole::Agg { pod } => {
                if dst.pod == pod {
                    PortId(dst.tor)
                } else {
                    PortId(self.shape.tors_per_pod + (flow % self.shape.spines as u64) as u16)
                }
            }
            SwitchRole::Spine { .. } => PortId(dst.pod),
        }
    }

    fn is_lossless(&self, class: TrafficClass) -> bool {
        self.cfg.lossless_mask & (1 << class.index()) != 0
    }

    fn handle_packet(&mut self, mut pkt: Packet, ingress: PortId, ctx: &mut Context<'_, Msg>) {
        if self.crashed {
            self.stats.crash_drops += 1;
            return;
        }
        if !self.link_up(ingress) {
            // Frame was in flight when the link went down.
            self.stats.link_down_drops += 1;
            return;
        }
        self.stats.rx_frames += 1;
        if let Some(t) = &self.tracer {
            t.instant(
                ctx.now(),
                "pkt",
                &[
                    ("dst_pod", pkt.dst.pod as u64),
                    ("dst_tor", pkt.dst.tor as u64),
                    ("dst_host", pkt.dst.host as u64),
                    ("class", pkt.class.index() as u64),
                ],
            );
        }
        if pkt.ttl == 0 {
            self.stats.ttl_expired += 1;
            return;
        }
        pkt.ttl -= 1;

        let egress = self.route(pkt.dst, pkt.flow_hash());
        let class = pkt.class;
        let ci = class.index();
        let wire = pkt.wire_bytes() as u64;
        // One egress-port read covers the reachability checks and the
        // queue depth used by ECN and the tail-drop test below. A port
        // without state has no cable either.
        let Some(eport) = self.ports.get(egress).filter(|p| p.cable.peer().is_some()) else {
            self.stats.no_route += 1;
            return;
        };
        if !eport.up {
            self.stats.link_down_drops += 1;
            return;
        }
        let depth = eport.queued_bytes[ci];
        let background = eport.background_bytes;

        // Congestion point: RED/ECN marking against the egress queue depth.
        // Flow-level background pressure counts toward the marking depth
        // (aggregate traffic shares the queue) but not toward the tail-drop
        // test below — the boundary adapter signals congestion, it never
        // destroys packet-level frames.
        if let Some(ecn) = self.cfg.ecn {
            if pkt.ecn == Ecn::Capable {
                let mark_depth = depth + background;
                let p = if mark_depth <= ecn.kmin_bytes {
                    0.0
                } else if mark_depth >= ecn.kmax_bytes {
                    1.0
                } else {
                    ecn.pmax * (mark_depth - ecn.kmin_bytes) as f64
                        / (ecn.kmax_bytes - ecn.kmin_bytes) as f64
                };
                if p > 0.0 && ctx.rng().chance(p) {
                    pkt.ecn = Ecn::CongestionExperienced;
                    self.stats.ecn_marked += 1;
                }
            }
        }

        let lossless = self.is_lossless(class);
        if !lossless && depth + wire > self.cfg.queue_capacity_bytes {
            self.stats.dropped += 1;
            if let Some(t) = &self.tracer {
                t.instant(ctx.now(), "drop", &[("egress", egress.0 as u64)]);
            }
            return;
        }

        // PFC generation: account buffered bytes against the ingress port.
        if lossless {
            let p = self.ports.materialize(ingress, self.cfg.link);
            p.ingress_bytes[ci] += wire;
            if let Some(pfc) = self.cfg.pfc {
                if p.ingress_bytes[ci] > pfc.xoff_bytes && !p.pause_sent[ci] {
                    p.pause_sent[ci] = true;
                    if let Some(peer) = p.cable.peer() {
                        let prop = p.tx.params().propagation;
                        ctx.send_after(
                            prop,
                            peer.comp,
                            Msg::Net(NetEvent::Pfc {
                                class,
                                ingress: peer.port,
                                pause: true,
                            }),
                        );
                        self.stats.pauses_sent += 1;
                    }
                }
            }
        }

        // Pipeline latency plus optional contention jitter.
        let mut extra = self.cfg.base_latency;
        if let Some((mu, sigma)) = self.jitter_ln {
            let sample = ctx.rng().lognormal(mu, sigma);
            extra += SimDuration::from_nanos(sample as u64);
        }

        let port = self.ports.get_mut(egress).expect("a cabled port has state");
        port.queued_bytes[ci] += wire;
        port.queues[ci].push_back(Queued {
            pkt,
            ingress,
            extra,
        });
        self.try_transmit(egress, ctx);
    }

    fn try_transmit(&mut self, egress: PortId, ctx: &mut Context<'_, Msg>) {
        // Borrow the egress port once for the eligibility checks, the
        // priority scan and the dequeue bookkeeping. A port without state
        // has nothing queued.
        let Some(port) = self.ports.get_mut(egress) else {
            return;
        };
        if self.crashed || !port.up {
            return;
        }
        if port.free.wire_busy(&port.tx, ctx) {
            // The frame just queued, or the class just resumed, waits for
            // the wire: only now is the free-timer worth an event.
            port.arm_free_if_queued(egress, ctx);
            return;
        }
        // Strict priority: highest non-paused, non-empty class first.
        let Some(ci) = (0..TrafficClass::COUNT)
            .rev()
            .find(|&c| !port.tx_paused[c] && !port.queues[c].is_empty())
        else {
            return;
        };
        let mut q = port.queues[ci]
            .pop_front()
            .expect("class queue checked non-empty");
        let wire = q.pkt.wire_bytes() as u64;
        port.queued_bytes[ci] -= wire;
        if port.corrupt_pending > 0 {
            port.corrupt_pending -= 1;
            q.pkt.corrupt = true;
            self.stats.corrupted += 1;
        }

        // Release ingress accounting and possibly send XON.
        if self.is_lossless(q.pkt.class) {
            let ing = self
                .ports
                .get_mut(q.ingress)
                .expect("lossless ingress accounting created the port");
            ing.ingress_bytes[ci] = ing.ingress_bytes[ci].saturating_sub(wire);
            if let Some(pfc) = self.cfg.pfc {
                if ing.pause_sent[ci] && ing.ingress_bytes[ci] < pfc.xon_bytes {
                    ing.pause_sent[ci] = false;
                    if let Some(peer) = ing.cable.peer() {
                        let prop = ing.tx.params().propagation;
                        ctx.send_after(
                            prop,
                            peer.comp,
                            Msg::Net(NetEvent::Pfc {
                                class: q.pkt.class,
                                ingress: peer.port,
                                pause: false,
                            }),
                        );
                        self.stats.resumes_sent += 1;
                    }
                }
            }
        }

        let port = self.ports.get_mut(egress).expect("checked above");
        let cable = port.cable;
        let timing = port.tx.transmit(ctx.now(), q.pkt.wire_bytes());
        port.free.reserve(ctx);
        port.arm_free_if_queued(egress, ctx);
        port.tx_frames[ci] += 1;
        self.stats.tx_frames += 1;
        // Jitter delays a frame but never lets it pass the one sent before
        // it: the link delivers in wire order, as ECMP plus FIFO egress do.
        let arrives = (timing.arrives + q.extra).max(port.last_arrival);
        port.last_arrival = arrives;
        match cable {
            Cable::Shell(peer) if q.pkt.dst_port == LTL_UDP_PORT => ctx.send_after(
                arrives + self.ltl_rx - ctx.now(),
                peer.comp,
                Msg::LtlRx(q.pkt),
            ),
            Cable::Peer(peer) | Cable::Shell(peer) => ctx.send_after(
                arrives - ctx.now(),
                peer.comp,
                Msg::packet(q.pkt, peer.port),
            ),
            Cable::Open => panic!("transmit on unconnected port"),
        }
    }
}

impl Component<Msg> for Switch {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::Net(NetEvent::Packet { pkt, ingress }) => self.handle_packet(pkt, ingress, ctx),
            Msg::Net(NetEvent::Pfc {
                class,
                ingress,
                pause,
            }) => {
                if self.crashed {
                    return;
                }
                self.ports.materialize(ingress, self.cfg.link).tx_paused[class.index()] = pause;
                if !pause {
                    self.try_transmit(ingress, ctx);
                }
            }
            // Shell pipeline hand-offs, send commands and deliveries
            // never reach a switch.
            Msg::Egress { .. } | Msg::LtlRx(_) | Msg::LtlSend(_) | Msg::LtlDeliver(_) => {
                panic!("endpoint pipeline message delivered to a switch")
            }
            // Operator commands, as the typed variant or a boxed payload;
            // anything else is not ours.
            cmd => {
                let Ok(cmd) = cmd.downcast::<SwitchCmd>() else {
                    return;
                };
                match cmd {
                    SwitchCmd::Disconnect(port) => self.disconnect(port),
                    SwitchCmd::SetLinkUp { port, up } => self.set_link_up(port, up),
                    SwitchCmd::Crash { reboot_after } => self.crash(reboot_after, ctx),
                    SwitchCmd::CorruptNext { port, frames } => {
                        self.ports.materialize(port, self.cfg.link).corrupt_pending += frames;
                    }
                    SwitchCmd::SetBackgroundLoad { port, bytes } => {
                        self.set_background_bytes(port, bytes);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Msg>) {
        if token == REBOOT_TOKEN {
            self.crashed = false;
            for p in self.ports.iter_mut() {
                p.free.clear();
            }
            return;
        }
        if self.crashed {
            // Stale serialization timer from before the crash; port state
            // was already reset.
            return;
        }
        let port = PortId(token as u16);
        if let Some(p) = self.ports.get_mut(port) {
            p.free.clear();
        }
        self.try_transmit(port, ctx);
    }
}

impl MetricSource for Switch {
    fn metrics(&self, m: &mut MetricVisitor<'_>) {
        let s = &self.stats;
        m.counter("rx_frames", s.rx_frames);
        m.counter("tx_frames", s.tx_frames);
        m.counter("dropped", s.dropped);
        m.counter("ecn_marked", s.ecn_marked);
        m.counter("pauses_sent", s.pauses_sent);
        m.counter("resumes_sent", s.resumes_sent);
        m.counter("no_route", s.no_route);
        m.counter("ttl_expired", s.ttl_expired);
        m.counter("link_down_drops", s.link_down_drops);
        m.counter("crash_drops", s.crash_drops);
        m.counter("corrupted", s.corrupted);
        m.counter("crashes", s.crashes);
        let queued: u64 = self
            .ports
            .iter()
            .map(|p| p.queued_bytes.iter().sum::<u64>())
            .sum();
        m.gauge("queued_bytes", queued as f64);
        let background: u64 = self.ports.iter().map(|p| p.background_bytes).sum();
        m.gauge("background_bytes", background as f64);
    }
}

impl core::fmt::Debug for Switch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Switch")
            .field("role", &self.role)
            .field("ports", &self.port_count())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dcsim::{Engine, SimTime};

    /// Endpoint that records every packet and pause it receives.
    #[derive(Debug, Default)]
    struct Sink {
        packets: Vec<(SimTime, Packet)>,
        pauses: Vec<(SimTime, bool)>,
    }

    impl Component<Msg> for Sink {
        fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Net(NetEvent::Packet { pkt, .. }) => self.packets.push((ctx.now(), pkt)),
                Msg::Net(NetEvent::Pfc { pause, .. }) => self.pauses.push((ctx.now(), pause)),
                _ => {}
            }
        }
    }

    fn shape() -> FabricShape {
        FabricShape {
            hosts_per_tor: 4,
            tors_per_pod: 2,
            pods: 2,
            spines: 2,
        }
    }

    fn mk_pkt(src: NodeAddr, dst: NodeAddr, class: TrafficClass, len: usize) -> Packet {
        Packet::new(src, dst, 1000, 2000, class, Bytes::from(vec![0u8; len]))
    }

    /// Every cabled port of every materialized switch is one of these:
    /// marking a shell's cable rides in the tag byte, so a port costs what
    /// it did.
    #[test]
    fn a_port_is_552_bytes() {
        assert_eq!(std::mem::size_of::<Port>(), 552);
    }

    fn tor() -> Switch {
        Switch::new(
            SwitchRole::Tor { pod: 0, tor: 0 },
            shape(),
            SwitchConfig::default(),
        )
    }

    /// A frame from host 1 to host `to` of TOR (0, 0).
    fn to_host(to: u16, class: TrafficClass) -> Msg {
        let (src, dst) = (NodeAddr::new(0, 0, 1), NodeAddr::new(0, 0, to));
        Msg::packet(mk_pkt(src, dst, class, 100), PortId(1))
    }

    #[test]
    fn an_uncabled_port_reads_as_a_fresh_one_and_holds_no_state() {
        let mut sw = tor();
        assert_eq!((sw.port_count(), sw.ports.iter().count()), (5, 0));
        for port in (0..5).map(PortId) {
            assert!(sw.link_up(port));
            assert_eq!(sw.background_bytes(port), 0);
            for class in (0..TrafficClass::COUNT as u8).map(TrafficClass::new) {
                assert_eq!(sw.queue_bytes(port, class), 0);
                assert!(!sw.tx_paused(port, class));
                assert_eq!(sw.tx_frames(port, class), 0);
            }
        }
        // Neither uncabling an uncabled port nor the reads above create
        // state; a cable does, and the port count stays nominal.
        sw.disconnect(PortId(3));
        assert_eq!(sw.ports.iter().count(), 0);
        sw.connect(PortId(4), ComponentId::from_raw(1), PortId(0));
        assert_eq!((sw.port_count(), sw.ports.iter().count()), (5, 1));
        assert!(format!("{sw:?}").contains("ports: 5"));
    }

    #[test]
    fn a_frame_to_an_uncabled_egress_counts_no_route() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut sw = tor();
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        let sw_id = e.add_component(sw);
        let sink_id = e.add_component(Sink::default());
        e.schedule(SimTime::ZERO, sw_id, to_host(3, TrafficClass::BEST_EFFORT));
        e.schedule(SimTime::ZERO, sw_id, to_host(2, TrafficClass::BEST_EFFORT));
        e.run_to_idle();
        assert_eq!(e.component::<Sink>(sink_id).unwrap().packets.len(), 1);
        let sw = e.component::<Switch>(sw_id).unwrap();
        let stats = sw.stats_view();
        assert_eq!(
            (stats.rx_frames, stats.tx_frames, stats.no_route),
            (2, 1, 1)
        );
        assert_eq!(
            sw.ports.iter().count(),
            1,
            "the unroutable frame created no port"
        );
    }

    /// A link taken down before it is cabled stays down once cabled: its
    /// frames are lost until the link comes back, as on a port that always
    /// had state.
    #[test]
    fn a_link_downed_before_its_cable_stays_down() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut sw = tor();
        sw.set_link_up(PortId(2), false);
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        assert!(!sw.link_up(PortId(2)));
        let sw_id = e.add_component(sw);
        let sink_id = e.add_component(Sink::default());
        e.schedule(SimTime::ZERO, sw_id, to_host(2, TrafficClass::LTL));
        let up = SwitchCmd::SetLinkUp {
            port: PortId(2),
            up: true,
        };
        e.schedule(SimTime::from_micros(10), sw_id, Msg::Switch(up));
        e.schedule(
            SimTime::from_micros(20),
            sw_id,
            to_host(2, TrafficClass::LTL),
        );
        e.run_to_idle();
        assert_eq!(e.component::<Sink>(sink_id).unwrap().packets.len(), 1);
        let sw = e.component::<Switch>(sw_id).unwrap();
        assert_eq!(sw.stats_view().link_down_drops, 1);
        assert!(sw.link_up(PortId(2)));
    }

    /// Background pressure set before the cable is kept by it: the first
    /// frame through is marked.
    #[test]
    fn background_set_before_its_cable_marks_the_first_frame() {
        let mut e: Engine<Msg> = Engine::new(1);
        let cfg = SwitchConfig {
            ecn: Some(EcnConfig {
                kmin_bytes: 1_000,
                kmax_bytes: 5_000,
                pmax: 1.0,
            }),
            ..SwitchConfig::default()
        };
        let mut sw = Switch::new(SwitchRole::Tor { pod: 0, tor: 0 }, shape(), cfg);
        sw.set_background_bytes(PortId(2), 10_000);
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        assert_eq!(
            (sw.background_bytes(PortId(2)), sw.ports.iter().count()),
            (10_000, 1)
        );
        let sw_id = e.add_component(sw);
        let sink_id = e.add_component(Sink::default());
        e.schedule(SimTime::ZERO, sw_id, to_host(2, TrafficClass::LTL));
        e.run_to_idle();
        let sink = e.component::<Sink>(sink_id).unwrap();
        assert_eq!(sink.packets[0].1.ecn, Ecn::CongestionExperienced);
    }

    /// A crash drops what the cabled ports hold, frame for frame; ports
    /// without state hold nothing to flush.
    #[test]
    fn a_crash_flushes_exactly_the_frames_queued_on_cabled_ports() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut sw = tor();
        sw.connect(PortId(0), ComponentId::from_raw(1), PortId(0));
        sw.connect(PortId(3), ComponentId::from_raw(1), PortId(0));
        let sw_id = e.add_component(sw);
        let sink_id = e.add_component(Sink::default());
        // 4 frames to host 0 and 3 to host 3: one of each on the wire, the
        // rest (3 + 2) queued when the switch crashes.
        for (host, n) in [(0, 4), (3, 3)] {
            for _ in 0..n {
                e.schedule(
                    SimTime::ZERO,
                    sw_id,
                    to_host(host, TrafficClass::BEST_EFFORT),
                );
            }
        }
        let crash = SwitchCmd::Crash {
            reboot_after: SimDuration::from_micros(1),
        };
        e.schedule(SimTime::from_nanos(10), sw_id, Msg::Switch(crash));
        e.run_to_idle();
        assert_eq!(e.component::<Sink>(sink_id).unwrap().packets.len(), 2);
        let sw = e.component::<Switch>(sw_id).unwrap();
        let stats = sw.stats_view();
        assert_eq!(
            (stats.crash_drops, stats.crashes, stats.tx_frames),
            (5, 1, 2)
        );
        assert_eq!(sw.ports.iter().count(), 2);
    }

    #[test]
    fn tor_routes_local_and_uplink() {
        let sw = Switch::new(
            SwitchRole::Tor { pod: 0, tor: 1 },
            shape(),
            SwitchConfig::default(),
        );
        assert_eq!(sw.route(NodeAddr::new(0, 1, 3), 0), PortId(3));
        assert_eq!(sw.route(NodeAddr::new(0, 0, 3), 0), PortId(4));
        assert_eq!(sw.route(NodeAddr::new(1, 1, 3), 0), PortId(4));
    }

    /// A shell's port hands an LTL frame to the shell's receive stage,
    /// the declared latency after its wire arrival, in one event; a frame
    /// of any other protocol arrives as a packet.
    #[test]
    fn a_shell_port_hands_ltl_frames_to_the_receive_stage() {
        #[derive(Default)]
        struct Shell {
            got: Vec<(SimTime, &'static str)>,
        }
        impl Component<Msg> for Shell {
            fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
                let via = match msg {
                    Msg::LtlRx(_) => "stage",
                    Msg::Net(NetEvent::Packet { .. }) => "packet",
                    _ => "other",
                };
                self.got.push((ctx.now(), via));
            }
        }
        let cfg = SwitchConfig::default();
        let ltl_rx = SimDuration::from_nanos(450);
        let mut e: Engine<Msg> = Engine::new(1);
        let mut sw = Switch::new(SwitchRole::Tor { pod: 0, tor: 0 }, shape(), cfg.clone());
        sw.connect_shell(PortId(2), ComponentId::from_raw(1), PortId(0), ltl_rx);
        let sw_id = e.add_component(sw);
        let shell_id = e.add_component(Shell::default());
        let (src, dst) = (NodeAddr::new(0, 0, 0), NodeAddr::new(0, 0, 2));
        let mut ltl = mk_pkt(src, dst, TrafficClass::LTL, 64);
        ltl.dst_port = LTL_UDP_PORT;
        let wire = ltl.wire_bytes();
        e.schedule(SimTime::ZERO, sw_id, Msg::packet(ltl, PortId(0)));
        let host = mk_pkt(src, dst, TrafficClass::BEST_EFFORT, 64);
        e.schedule(SimTime::from_micros(1), sw_id, Msg::packet(host, PortId(0)));
        e.run_to_idle();
        let arrival = |sent: SimTime| {
            sent + cfg.base_latency + cfg.link.serialization(wire) + cfg.link.propagation
        };
        assert_eq!(
            e.component::<Shell>(shell_id).unwrap().got,
            [
                (arrival(SimTime::ZERO) + ltl_rx, "stage"),
                (arrival(SimTime::from_micros(1)), "packet"),
            ]
        );
    }

    #[test]
    fn ecmp_is_sticky_per_flow() {
        // "Low-latency communication demands infrequent packet drops and
        // infrequent packet reorders": a given flow must always take the
        // same spine uplink, whatever the traffic mix around it.
        let sw = Switch::new(SwitchRole::Agg { pod: 0 }, shape(), SwitchConfig::default());
        let dst = NodeAddr::new(1, 1, 1);
        for flow in [0u64, 1, 7, 0xDEADBEEF, u64::MAX] {
            let first = sw.route(dst, flow);
            for _ in 0..5 {
                assert_eq!(sw.route(dst, flow), first, "flow {flow} flapped");
            }
        }
    }

    #[test]
    fn agg_routes_rack_and_ecmp_spine() {
        let sw = Switch::new(SwitchRole::Agg { pod: 1 }, shape(), SwitchConfig::default());
        assert_eq!(sw.route(NodeAddr::new(1, 0, 2), 7), PortId(0));
        let up0 = sw.route(NodeAddr::new(0, 0, 0), 0);
        let up1 = sw.route(NodeAddr::new(0, 0, 0), 1);
        assert_eq!(up0, PortId(2));
        assert_eq!(up1, PortId(3));
    }

    #[test]
    fn spine_routes_to_pod() {
        let sw = Switch::new(
            SwitchRole::Spine { index: 0 },
            shape(),
            SwitchConfig::default(),
        );
        assert_eq!(sw.route(NodeAddr::new(1, 0, 0), 99), PortId(1));
    }

    #[test]
    fn forwards_packet_with_latency() {
        let mut e: Engine<Msg> = Engine::new(1);
        let cfg = SwitchConfig {
            base_latency: SimDuration::from_nanos(300),
            link: LinkParams::gbe40(SimDuration::from_nanos(100)),
            ..SwitchConfig::default()
        };
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(SwitchRole::Tor { pod: 0, tor: 0 }, shape(), cfg);
        let sink_id = ComponentId::from_raw(1);
        sw.connect(PortId(2), sink_id, PortId(0));
        e.add_component(sw);
        let sink = e.add_component(Sink::default());
        assert_eq!(sink, sink_id);

        let pkt = mk_pkt(
            NodeAddr::new(0, 0, 1),
            NodeAddr::new(0, 0, 2),
            TrafficClass::BEST_EFFORT,
            1434, // wire = 1434 + 42 + 24 = 1500
        );
        let wire = pkt.wire_bytes();
        assert_eq!(wire, 1500);
        e.schedule(SimTime::ZERO, sw_id, Msg::packet(pkt, PortId(1)));
        e.run_to_idle();
        let sink = e.component::<Sink>(sink_id).unwrap();
        assert_eq!(sink.packets.len(), 1);
        // serialization 300ns + propagation 100ns + pipeline 300ns
        assert_eq!(sink.packets[0].0, SimTime::from_nanos(700));
        assert_eq!(sink.packets[0].1.ttl, 63);
    }

    #[test]
    fn lossy_queue_overflow_drops() {
        let mut e: Engine<Msg> = Engine::new(1);
        let cfg = SwitchConfig {
            queue_capacity_bytes: 3_000,
            ..SwitchConfig::default()
        };
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(SwitchRole::Tor { pod: 0, tor: 0 }, shape(), cfg);
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        e.add_component(sw);
        e.add_component(Sink::default());
        for _ in 0..10 {
            let pkt = mk_pkt(
                NodeAddr::new(0, 0, 1),
                NodeAddr::new(0, 0, 2),
                TrafficClass::BEST_EFFORT,
                1400,
            );
            e.schedule(SimTime::ZERO, sw_id, Msg::packet(pkt, PortId(1)));
        }
        e.run_to_idle();
        let sw = e.component::<Switch>(sw_id).unwrap();
        assert!(
            sw.stats_view().dropped > 0,
            "expected drops: {:?}",
            sw.stats_view()
        );
        assert_eq!(
            sw.stats_view().dropped + sw.stats_view().tx_frames,
            sw.stats_view().rx_frames
        );
    }

    #[test]
    fn lossless_class_is_never_dropped_and_pauses_instead() {
        let mut e: Engine<Msg> = Engine::new(1);
        let cfg = SwitchConfig {
            queue_capacity_bytes: 3_000,
            pfc: Some(PfcConfig {
                xoff_bytes: 4_000,
                xon_bytes: 2_000,
            }),
            ..SwitchConfig::default()
        };
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(SwitchRole::Tor { pod: 0, tor: 0 }, shape(), cfg);
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        sw.connect(PortId(1), ComponentId::from_raw(2), PortId(0)); // upstream sender
        e.add_component(sw);
        e.add_component(Sink::default()); // receiver
        let upstream = e.add_component(Sink::default());
        for _ in 0..10 {
            let pkt = mk_pkt(
                NodeAddr::new(0, 0, 1),
                NodeAddr::new(0, 0, 2),
                TrafficClass::LTL,
                1400,
            );
            e.schedule(SimTime::ZERO, sw_id, Msg::packet(pkt, PortId(1)));
        }
        e.run_to_idle();
        let sw_ref = e.component::<Switch>(sw_id).unwrap();
        assert_eq!(sw_ref.stats_view().dropped, 0);
        assert!(sw_ref.stats_view().pauses_sent > 0);
        assert!(sw_ref.stats_view().resumes_sent > 0);
        let up = e.component::<Sink>(upstream).unwrap();
        assert!(up.pauses.iter().any(|&(_, p)| p), "XOFF seen");
        assert!(up.pauses.iter().any(|&(_, p)| !p), "XON seen");
    }

    #[test]
    fn pfc_pause_stops_transmission_until_resume() {
        let mut e: Engine<Msg> = Engine::new(1);
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(
            SwitchRole::Tor { pod: 0, tor: 0 },
            shape(),
            SwitchConfig::default(),
        );
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        e.add_component(sw);
        let sink_id = e.add_component(Sink::default());

        // Pause the egress class, inject a packet, verify nothing arrives,
        // then resume and verify delivery.
        e.schedule(
            SimTime::ZERO,
            sw_id,
            Msg::Net(NetEvent::Pfc {
                class: TrafficClass::LTL,
                ingress: PortId(2),
                pause: true,
            }),
        );
        let pkt = mk_pkt(
            NodeAddr::new(0, 0, 1),
            NodeAddr::new(0, 0, 2),
            TrafficClass::LTL,
            100,
        );
        e.schedule(SimTime::from_nanos(10), sw_id, Msg::packet(pkt, PortId(1)));
        e.run_until(SimTime::from_micros(50));
        assert!(e.component::<Sink>(sink_id).unwrap().packets.is_empty());
        e.schedule(
            SimTime::from_micros(51),
            sw_id,
            Msg::Net(NetEvent::Pfc {
                class: TrafficClass::LTL,
                ingress: PortId(2),
                pause: false,
            }),
        );
        e.run_to_idle();
        assert_eq!(e.component::<Sink>(sink_id).unwrap().packets.len(), 1);
    }

    #[test]
    fn strict_priority_prefers_higher_class() {
        let mut e: Engine<Msg> = Engine::new(1);
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(
            SwitchRole::Tor { pod: 0, tor: 0 },
            shape(),
            SwitchConfig::default(),
        );
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        e.add_component(sw);
        let sink_id = e.add_component(Sink::default());
        // Two best-effort packets then one LTL packet, all at t=0. The
        // first BE packet grabs the wire; LTL must overtake the second.
        for (i, class) in [
            TrafficClass::BEST_EFFORT,
            TrafficClass::BEST_EFFORT,
            TrafficClass::LTL,
        ]
        .iter()
        .enumerate()
        {
            let pkt = mk_pkt(
                NodeAddr::new(0, 0, 1),
                NodeAddr::new(0, 0, 2),
                *class,
                1000 + i, // distinguishable lengths
            );
            e.schedule(SimTime::ZERO, sw_id, Msg::packet(pkt, PortId(1)));
        }
        e.run_to_idle();
        let sink = e.component::<Sink>(sink_id).unwrap();
        let lens: Vec<usize> = sink.packets.iter().map(|(_, p)| p.payload.len()).collect();
        assert_eq!(lens, vec![1000, 1002, 1001]);
    }

    #[test]
    fn ecn_marks_under_queue_buildup() {
        let mut e: Engine<Msg> = Engine::new(1);
        let cfg = SwitchConfig {
            ecn: Some(EcnConfig {
                kmin_bytes: 1_000,
                kmax_bytes: 5_000,
                pmax: 1.0,
            }),
            pfc: Some(PfcConfig {
                xoff_bytes: u64::MAX,
                xon_bytes: 0,
            }),
            ..SwitchConfig::default()
        };
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(SwitchRole::Tor { pod: 0, tor: 0 }, shape(), cfg);
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        e.add_component(sw);
        let sink_id = e.add_component(Sink::default());
        for _ in 0..20 {
            let pkt = mk_pkt(
                NodeAddr::new(0, 0, 1),
                NodeAddr::new(0, 0, 2),
                TrafficClass::LTL,
                1400,
            );
            e.schedule(SimTime::ZERO, sw_id, Msg::packet(pkt, PortId(1)));
        }
        e.run_to_idle();
        let marked = e
            .component::<Sink>(sink_id)
            .unwrap()
            .packets
            .iter()
            .filter(|(_, p)| p.ecn == Ecn::CongestionExperienced)
            .count();
        assert!(marked >= 5, "marked {marked}");
        let first = &e.component::<Sink>(sink_id).unwrap().packets[0].1;
        assert_eq!(first.ecn, Ecn::Capable, "first packet saw empty queue");
    }

    #[test]
    fn link_down_drops_and_link_up_restores() {
        let mut e: Engine<Msg> = Engine::new(1);
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(
            SwitchRole::Tor { pod: 0, tor: 0 },
            shape(),
            SwitchConfig::default(),
        );
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        e.add_component(sw);
        let sink_id = e.add_component(Sink::default());

        e.schedule(
            SimTime::ZERO,
            sw_id,
            Msg::Switch(SwitchCmd::SetLinkUp {
                port: PortId(2),
                up: false,
            }),
        );
        let dropped = mk_pkt(
            NodeAddr::new(0, 0, 1),
            NodeAddr::new(0, 0, 2),
            TrafficClass::LTL,
            100,
        );
        e.schedule(
            SimTime::from_nanos(10),
            sw_id,
            Msg::packet(dropped, PortId(1)),
        );
        e.schedule(
            SimTime::from_micros(10),
            sw_id,
            Msg::Switch(SwitchCmd::SetLinkUp {
                port: PortId(2),
                up: true,
            }),
        );
        let delivered = mk_pkt(
            NodeAddr::new(0, 0, 1),
            NodeAddr::new(0, 0, 2),
            TrafficClass::LTL,
            100,
        );
        e.schedule(
            SimTime::from_micros(20),
            sw_id,
            Msg::packet(delivered, PortId(1)),
        );
        e.run_to_idle();
        assert_eq!(e.component::<Sink>(sink_id).unwrap().packets.len(), 1);
        let sw = e.component::<Switch>(sw_id).unwrap();
        assert_eq!(sw.stats_view().link_down_drops, 1);
        assert!(sw.link_up(PortId(2)));
    }

    #[test]
    fn crash_flushes_and_reboot_restores_forwarding() {
        let mut e: Engine<Msg> = Engine::new(1);
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(
            SwitchRole::Tor { pod: 0, tor: 0 },
            shape(),
            SwitchConfig::default(),
        );
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        e.add_component(sw);
        let sink_id = e.add_component(Sink::default());

        e.schedule(
            SimTime::ZERO,
            sw_id,
            Msg::Switch(SwitchCmd::Crash {
                reboot_after: SimDuration::from_micros(100),
            }),
        );
        // Arrives while crashed: lost.
        let lost = mk_pkt(
            NodeAddr::new(0, 0, 1),
            NodeAddr::new(0, 0, 2),
            TrafficClass::LTL,
            100,
        );
        e.schedule(
            SimTime::from_micros(50),
            sw_id,
            Msg::packet(lost, PortId(1)),
        );
        // Arrives after reboot: forwarded.
        let ok = mk_pkt(
            NodeAddr::new(0, 0, 1),
            NodeAddr::new(0, 0, 2),
            TrafficClass::LTL,
            100,
        );
        e.schedule(SimTime::from_micros(200), sw_id, Msg::packet(ok, PortId(1)));
        e.run_to_idle();
        assert_eq!(e.component::<Sink>(sink_id).unwrap().packets.len(), 1);
        let sw = e.component::<Switch>(sw_id).unwrap();
        assert!(!sw.is_crashed());
        assert_eq!(sw.stats_view().crashes, 1);
        assert_eq!(sw.stats_view().crash_drops, 1);
    }

    #[test]
    fn corrupt_next_marks_exactly_n_frames() {
        let mut e: Engine<Msg> = Engine::new(1);
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(
            SwitchRole::Tor { pod: 0, tor: 0 },
            shape(),
            SwitchConfig::default(),
        );
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        e.add_component(sw);
        let sink_id = e.add_component(Sink::default());
        e.schedule(
            SimTime::ZERO,
            sw_id,
            Msg::Switch(SwitchCmd::CorruptNext {
                port: PortId(2),
                frames: 2,
            }),
        );
        for i in 0..4u64 {
            let pkt = mk_pkt(
                NodeAddr::new(0, 0, 1),
                NodeAddr::new(0, 0, 2),
                TrafficClass::LTL,
                100,
            );
            e.schedule(
                SimTime::from_nanos(10 + i),
                sw_id,
                Msg::packet(pkt, PortId(1)),
            );
        }
        e.run_to_idle();
        let sink = e.component::<Sink>(sink_id).unwrap();
        assert_eq!(sink.packets.len(), 4);
        let corrupt = sink.packets.iter().filter(|(_, p)| p.corrupt).count();
        assert_eq!(corrupt, 2);
        assert_eq!(
            e.component::<Switch>(sw_id).unwrap().stats_view().corrupted,
            2
        );
    }

    #[test]
    fn background_pressure_marks_but_never_drops() {
        let mut e: Engine<Msg> = Engine::new(1);
        let cfg = SwitchConfig {
            ecn: Some(EcnConfig {
                kmin_bytes: 1_000,
                kmax_bytes: 5_000,
                pmax: 1.0,
            }),
            ..SwitchConfig::default()
        };
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(SwitchRole::Tor { pod: 0, tor: 0 }, shape(), cfg);
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        e.add_component(sw);
        let sink_id = e.add_component(Sink::default());
        // Saturating background pressure on an otherwise-empty queue: every
        // ECN-capable packet must be marked, none dropped or delayed.
        e.schedule(
            SimTime::ZERO,
            sw_id,
            Msg::Switch(SwitchCmd::SetBackgroundLoad {
                port: PortId(2),
                bytes: 10_000,
            }),
        );
        for i in 0..5u64 {
            let pkt = mk_pkt(
                NodeAddr::new(0, 0, 1),
                NodeAddr::new(0, 0, 2),
                TrafficClass::LTL,
                100,
            );
            e.schedule(
                SimTime::from_micros(1 + i * 10),
                sw_id,
                Msg::packet(pkt, PortId(1)),
            );
        }
        e.run_to_idle();
        let sink = e.component::<Sink>(sink_id).unwrap();
        assert_eq!(sink.packets.len(), 5, "pressure must not drop frames");
        assert!(
            sink.packets
                .iter()
                .all(|(_, p)| p.ecn == Ecn::CongestionExperienced),
            "every packet marked under saturating pressure"
        );
        let sw = e.component::<Switch>(sw_id).unwrap();
        assert_eq!(sw.stats_view().dropped, 0);
        assert_eq!(sw.background_bytes(PortId(2)), 10_000);
        // Clearing the pressure stops the marking.
        let t = e.now();
        e.schedule(
            t,
            sw_id,
            Msg::Switch(SwitchCmd::SetBackgroundLoad {
                port: PortId(2),
                bytes: 0,
            }),
        );
        let pkt = mk_pkt(
            NodeAddr::new(0, 0, 1),
            NodeAddr::new(0, 0, 2),
            TrafficClass::LTL,
            100,
        );
        e.schedule(
            t + SimDuration::from_micros(10),
            sw_id,
            Msg::packet(pkt, PortId(1)),
        );
        e.run_to_idle();
        let sink = e.component::<Sink>(sink_id).unwrap();
        assert_eq!(sink.packets.last().unwrap().1.ecn, Ecn::Capable);
    }

    #[test]
    fn shape_validates_coordinates() {
        let s = shape(); // 4 hosts, 2 tors, 2 pods
        assert!(s.addr(1, 1, 3).is_ok());
        assert!(matches!(
            s.addr(2, 0, 0),
            Err(crate::AddrError::Pod { pod: 2, limit: 2 })
        ));
        assert!(matches!(
            s.addr(0, 2, 0),
            Err(crate::AddrError::Tor { tor: 2, limit: 2 })
        ));
        assert!(matches!(
            s.addr(0, 0, 4),
            Err(crate::AddrError::Host { host: 4, limit: 4 })
        ));
        assert!(s.contains(NodeAddr::new(1, 1, 3)));
        assert!(!s.contains(NodeAddr::new(1, 1, 4)));
    }

    #[test]
    fn ttl_expiry_drops() {
        let mut e: Engine<Msg> = Engine::new(1);
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(
            SwitchRole::Tor { pod: 0, tor: 0 },
            shape(),
            SwitchConfig::default(),
        );
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        e.add_component(sw);
        let sink_id = e.add_component(Sink::default());
        let mut pkt = mk_pkt(
            NodeAddr::new(0, 0, 1),
            NodeAddr::new(0, 0, 2),
            TrafficClass::BEST_EFFORT,
            100,
        );
        pkt.ttl = 0;
        e.schedule(SimTime::ZERO, sw_id, Msg::packet(pkt, PortId(1)));
        e.run_to_idle();
        assert!(e.component::<Sink>(sink_id).unwrap().packets.is_empty());
        assert_eq!(
            e.component::<Switch>(sw_id)
                .unwrap()
                .stats_view()
                .ttl_expired,
            1
        );
    }

    const JITTER_SEED: u64 = 11;

    /// A jittered TOR (component 0) with port 2 cabled to a sink (1), and
    /// one 1434-byte frame (300 ns on the wire, 100 ns of cable) injected
    /// at each of `at`; frame `i` carries `i` as its source port.
    fn jittered_arrivals(jitter: Jitter, at: &[SimTime]) -> Vec<(SimTime, u16)> {
        let mut e: Engine<Msg> = Engine::new(JITTER_SEED);
        let cfg = SwitchConfig::default()
            .with_jitter(jitter)
            .with_link(LinkParams::gbe40(SimDuration::from_nanos(100)));
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(SwitchRole::Tor { pod: 0, tor: 0 }, shape(), cfg);
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        e.add_component(sw);
        let sink_id = e.add_component(Sink::default());
        for (i, &t) in at.iter().enumerate() {
            let mut pkt = mk_pkt(
                NodeAddr::new(0, 0, 1),
                NodeAddr::new(0, 0, 2),
                TrafficClass::BEST_EFFORT,
                1434,
            );
            pkt.src_port = i as u16;
            e.schedule(t, sw_id, Msg::packet(pkt, PortId(1)));
        }
        e.run_to_idle();
        let sink = e.component::<Sink>(sink_id).unwrap();
        sink.packets.iter().map(|(t, p)| (*t, p.src_port)).collect()
    }

    #[test]
    fn jitter_never_lets_a_frame_overtake_its_predecessor() {
        // A median of 1 us against 300 ns of serialization: drawn freely,
        // the delays would reorder most of a back-to-back burst.
        let jitter = Jitter {
            median_ns: 1_000.0,
            sigma: 1.0,
        };
        let arrivals = jittered_arrivals(jitter, &[SimTime::ZERO; 16]);
        let order: Vec<u16> = arrivals.iter().map(|&(_, i)| i).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>(), "wire order kept");
        assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn spaced_frames_keep_their_own_jitter_sample() {
        // 100 us apart, far beyond the jitter's tail: no frame waits for
        // another, so each arrives at send + wire + cable + pipeline + its
        // own draw, from the same stream the switch always drew from.
        let jitter = Jitter {
            median_ns: 200.0,
            sigma: 0.5,
        };
        let at: Vec<SimTime> = (0..8).map(|i| SimTime::from_micros(100 * i)).collect();
        let arrivals = jittered_arrivals(jitter, &at);
        let mut rng = dcsim::SimRng::seed_from(JITTER_SEED);
        let fixed = SimDuration::from_nanos(300 + 100 + 300);
        for (i, (&sent, &(arrived, port))) in at.iter().zip(&arrivals).enumerate() {
            assert_eq!(port as usize, i);
            let sample = rng.lognormal(jitter.median_ns.ln(), jitter.sigma) as u64;
            assert_eq!(arrived, sent + fixed + SimDuration::from_nanos(sample));
        }
    }

    /// Forwards what it is sent to the switch after `delay`, so the
    /// forwarded event takes its tie-break key mid-run.
    struct Relay {
        switch: ComponentId,
        delay: SimDuration,
    }

    impl Component<Msg> for Relay {
        fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            ctx.send_after(self.delay, self.switch, msg);
        }
    }

    /// Counts the port free-timers the engine actually dispatched.
    #[derive(Default)]
    struct FreeTimersFired(u64);

    impl dcsim::Observer<Msg> for FreeTimersFired {
        fn after_event(&mut self, ev: &dcsim::EventRecord, _engine: &Engine<Msg>) {
            if ev.timer.is_some_and(|token| token != REBOOT_TOKEN) {
                self.0 += 1;
            }
        }
    }

    /// Switch (component 0) with port 2 cabled to a sink (1), plus a relay
    /// (2) that delivers to the switch 200 ns later. 1434-byte payloads
    /// serialize in 300 ns and reach the sink 400 ns after that.
    fn free_timer_rig() -> (Engine<Msg>, ComponentId, ComponentId, ComponentId) {
        let mut e: Engine<Msg> = Engine::new(1);
        let sw_id = e.next_component_id();
        let mut sw = Switch::new(
            SwitchRole::Tor { pod: 0, tor: 0 },
            shape(),
            SwitchConfig::default(),
        );
        sw.connect(PortId(2), ComponentId::from_raw(1), PortId(0));
        e.add_component(sw);
        let sink = e.add_component(Sink::default());
        let relay = e.add_component(Relay {
            switch: sw_id,
            delay: SimDuration::from_nanos(200),
        });
        e.set_observer(Box::new(FreeTimersFired::default()));
        (e, sw_id, sink, relay)
    }

    fn to_port2(class: TrafficClass) -> Msg {
        let (src, dst) = (NodeAddr::new(0, 0, 1), NodeAddr::new(0, 0, 2));
        Msg::packet(mk_pkt(src, dst, class, 1434), PortId(1))
    }

    fn sink_times(e: &Engine<Msg>, sink: ComponentId) -> Vec<u64> {
        let sink = e.component::<Sink>(sink).unwrap();
        sink.packets.iter().map(|(t, _)| t.as_nanos()).collect()
    }

    fn free_timers_fired(e: &Engine<Msg>) -> u64 {
        e.observer_as::<FreeTimersFired>().unwrap().0
    }

    #[test]
    fn free_timer_is_an_event_only_while_a_frame_waits() {
        // A lone frame: the wire goes idle without an event.
        let (mut e, sw, sink, _) = free_timer_rig();
        e.schedule(SimTime::ZERO, sw, to_port2(TrafficClass::BEST_EFFORT));
        e.run_to_idle();
        assert_eq!(sink_times(&e, sink), [700]);
        assert_eq!(free_timers_fired(&e), 0);

        // Three back to back: the first two timers have a frame to start,
        // the third finds the queue empty and is never enqueued.
        let (mut e, sw, sink, _) = free_timer_rig();
        for _ in 0..3 {
            e.schedule(SimTime::ZERO, sw, to_port2(TrafficClass::BEST_EFFORT));
        }
        e.run_to_idle();
        assert_eq!(sink_times(&e, sink), [700, 1000, 1300]);
        assert_eq!(free_timers_fired(&e), 2);
    }

    #[test]
    fn class_resumed_while_the_wire_is_busy_leaves_when_it_frees() {
        let (mut e, sw, sink, _) = free_timer_rig();
        let pfc = |pause| {
            Msg::Net(NetEvent::Pfc {
                class: TrafficClass::LTL,
                ingress: PortId(2),
                pause,
            })
        };
        // Wire busy 0-300 ns with a best-effort frame; an LTL frame queues
        // behind it while its class is paused, and is resumed at 200 ns.
        e.schedule(SimTime::ZERO, sw, to_port2(TrafficClass::BEST_EFFORT));
        e.schedule(SimTime::from_nanos(50), sw, pfc(true));
        e.schedule(SimTime::from_nanos(100), sw, to_port2(TrafficClass::LTL));
        e.schedule(SimTime::from_nanos(200), sw, pfc(false));
        e.run_until(SimTime::from_nanos(250));
        assert_eq!(e.pending_events(), 2, "first delivery + the armed timer");
        e.run_to_idle();
        assert_eq!(sink_times(&e, sink), [700, 1000]);
        assert_eq!(free_timers_fired(&e), 1);
    }

    #[test]
    fn arrival_at_busy_until_resolves_by_key_on_both_sides() {
        // Scheduled up front, the second frame's key is older than the
        // one the first transmission reserved: at 300 ns it is dispatched
        // *before* the free-timer would fire, finds the wire busy, queues
        // and arms the timer — which then starts it in the same instant.
        let (mut e, sw, sink, _) = free_timer_rig();
        e.schedule(SimTime::ZERO, sw, to_port2(TrafficClass::BEST_EFFORT));
        e.schedule(
            SimTime::from_nanos(300),
            sw,
            to_port2(TrafficClass::BEST_EFFORT),
        );
        e.run_to_idle();
        assert_eq!(sink_times(&e, sink), [700, 1000]);
        assert_eq!(free_timers_fired(&e), 1);

        // Relayed at 100 ns, the second frame's key is younger than the
        // reserved one: at 300 ns the free-timer would already have fired,
        // so the wire is free and no timer event is needed at all.
        let (mut e, sw, sink, relay) = free_timer_rig();
        e.schedule(SimTime::ZERO, sw, to_port2(TrafficClass::BEST_EFFORT));
        e.schedule(
            SimTime::from_nanos(100),
            relay,
            to_port2(TrafficClass::BEST_EFFORT),
        );
        e.run_to_idle();
        assert_eq!(sink_times(&e, sink), [700, 1000]);
        assert_eq!(free_timers_fired(&e), 0);
    }

    #[test]
    fn crash_with_a_frame_on_the_wire_leaves_no_stale_reservation() {
        let (mut e, sw, sink, _) = free_timer_rig();
        e.schedule(SimTime::ZERO, sw, to_port2(TrafficClass::BEST_EFFORT));
        e.schedule(
            SimTime::from_nanos(100),
            sw,
            Msg::Switch(SwitchCmd::Crash {
                reboot_after: SimDuration::from_nanos(50),
            }),
        );
        // Back up at 150 ns, before the pre-crash frame would have left
        // the wire (300 ns): the port must be free, not waiting for a
        // timer nobody armed. (The serializer still paces the frame.)
        e.schedule(
            SimTime::from_nanos(200),
            sw,
            to_port2(TrafficClass::BEST_EFFORT),
        );
        e.schedule(
            SimTime::from_nanos(200),
            sw,
            to_port2(TrafficClass::BEST_EFFORT),
        );
        e.run_until(SimTime::from_nanos(250));
        let stats = *e.component::<Switch>(sw).unwrap().stats_view();
        assert_eq!((stats.tx_frames, stats.crashes), (2, 1));
        e.run_to_idle();
        assert_eq!(sink_times(&e, sink), [700, 1000, 1300]);
        assert_eq!(free_timers_fired(&e), 1, "only the third frame waited");
    }
}
