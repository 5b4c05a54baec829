//! Global invariants checked at event granularity over a full cluster.
//!
//! [`InvariantObserver`] attaches to the cluster engine through the
//! [`dcsim::Observer`] hook and, after *every* dispatched event,
//! re-evaluates predicates that must hold in every reachable state:
//!
//! * **Switch queue bounds** — a lossy egress queue never exceeds the
//!   configured capacity (the drop rule admits a frame only while
//!   `queued + wire <= capacity`); lossless queues stay under the
//!   PFC-derived ceiling.
//! * **PFC obedience** — while a switch egress (or the shell's TOR-facing
//!   egress) has a class paused across an event, it transmits nothing on
//!   that class. Pause state only flips inside an observed event, so
//!   `paused before == paused after == true` proves the whole interval
//!   was paused.
//! * **LTL receive monotonicity** — each receive connection's expected
//!   sequence number never moves backward (serial arithmetic).
//! * **HaaS lease legality** — node states only make the legal moves:
//!   Unallocated ⇄ Leased, anything → Failed, Failed → Unallocated
//!   (repair). A Failed node is never handed straight to a service, and
//!   a lease never changes hands without passing through the pool.

use crate::{seq_le, Violation};
use dcnet::{Msg, NodeAddr, PortId, Switch, TrafficClass};
use dcsim::{Component, ComponentId, Engine, EventRecord, Observer, SimTime};
use haas::FailureMonitor;
use shell::tenant::TenantId;
use shell::Shell;
use std::collections::BTreeMap;

/// Read-only typed component access: the least the invariant checks need
/// from an engine, implemented by the engine and by the cluster so the
/// same oracles run unsharded (at event granularity, via [`Observer`])
/// and on a sharded cluster (at whatever step granularity the harness
/// drives, via [`InvariantObserver::check_now`]).
pub trait ComponentView {
    /// A typed component reference, if `id` holds a `T`.
    fn view<T: Component<Msg>>(&self, id: ComponentId) -> Option<&T>;
}

impl ComponentView for Engine<Msg> {
    fn view<T: Component<Msg>>(&self, id: ComponentId) -> Option<&T> {
        self.component(id)
    }
}

impl ComponentView for catapult::Cluster {
    fn view<T: Component<Msg>>(&self, id: ComponentId) -> Option<&T> {
        self.component(id)
    }
}

/// Snapshot of one switch egress (port, class) lane.
#[derive(Debug, Clone, Copy, Default)]
struct LaneSnap {
    paused: bool,
    tx_frames: u64,
}

/// Snapshot of one shell's observable LTL state.
#[derive(Debug, Clone, Default)]
struct ShellSnap {
    tor_paused: bool,
    ltl_tx_frames: u64,
    recv_expected: Vec<u32>,
}

/// Simplified HaaS node state for transition checking.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeSnap {
    Unallocated,
    Leased(TenantId),
    Failed,
    Unregistered,
}

/// Event-granularity invariant checker for a cluster simulation.
pub struct InvariantObserver {
    switches: Vec<ComponentId>,
    shells: Vec<ComponentId>,
    monitor: Option<(ComponentId, Vec<NodeAddr>)>,
    switch_prev: BTreeMap<ComponentId, Vec<LaneSnap>>,
    shell_prev: BTreeMap<ComponentId, ShellSnap>,
    node_prev: BTreeMap<NodeAddr, NodeSnap>,
    violations: Vec<Violation>,
    checks: u64,
    /// Whether snapshots are taken after *every* event. The PFC-obedience
    /// checks compare pause state across consecutive snapshots and are
    /// only sound when nothing can flip a pause bit between them — at
    /// coarser (window) granularity they would flag legal transmissions,
    /// so they are disabled.
    event_granular: bool,
}

impl InvariantObserver {
    /// Builds a checker over the given switches, shells, and (optionally)
    /// a failure monitor with the node addresses to track.
    pub fn new(
        switches: Vec<ComponentId>,
        shells: Vec<ComponentId>,
        monitor: Option<(ComponentId, Vec<NodeAddr>)>,
    ) -> InvariantObserver {
        InvariantObserver {
            switches,
            shells,
            monitor,
            switch_prev: BTreeMap::new(),
            shell_prev: BTreeMap::new(),
            node_prev: BTreeMap::new(),
            violations: Vec::new(),
            checks: 0,
            event_granular: true,
        }
    }

    /// Like [`InvariantObserver::new`], but for checking at coarser than
    /// event granularity — between `run_until` steps of a sharded
    /// cluster, say. Queue bounds, LTL receive monotonicity, and HaaS
    /// transition legality are granularity-insensitive and stay on; the
    /// PFC-obedience snapshot diffs (which would misread "paused at both
    /// edges of a window" as "paused throughout") are disabled.
    pub fn windowed(
        switches: Vec<ComponentId>,
        shells: Vec<ComponentId>,
        monitor: Option<(ComponentId, Vec<NodeAddr>)>,
    ) -> InvariantObserver {
        let mut obs = InvariantObserver::new(switches, shells, monitor);
        obs.event_granular = false;
        obs
    }

    /// Runs every (enabled) check once against the current state. Drive
    /// this between steps when no [`Observer`] hook is available — e.g.
    /// under the sharded engine.
    pub fn check_now<V: ComponentView>(&mut self, at: SimTime, view: &V) {
        self.check_switches(at, view);
        self.check_shells(at, view);
        self.check_haas(at, view);
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total predicate evaluations.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    fn push(&mut self, at: SimTime, check: &'static str, detail: String) {
        if self.violations.len() < 32 {
            self.violations.push(Violation { at, check, detail });
        }
    }

    fn node_state(monitor: &FailureMonitor, addr: NodeAddr) -> NodeSnap {
        match monitor.pool().board(addr) {
            Some((true, None)) => NodeSnap::Unallocated,
            Some((true, Some(lease))) => NodeSnap::Leased(lease.tenant),
            Some((false, _)) => NodeSnap::Failed,
            None => NodeSnap::Unregistered,
        }
    }

    fn check_switches<V: ComponentView>(&mut self, at: SimTime, engine: &V) {
        for idx in 0..self.switches.len() {
            let id = self.switches[idx];
            let Some(sw) = engine.view::<Switch>(id) else {
                continue;
            };
            let ports = sw.port_count();
            let capacity = sw.config().queue_capacity_bytes;
            // Lossless classes are paused, not dropped; their backlog is
            // bounded by what every ingress can pour in past its XOFF
            // threshold plus frames already committed to the wire.
            let lossless_cap = sw
                .config()
                .pfc
                .as_ref()
                .map(|pfc| capacity.max(ports as u64 * pfc.xoff_bytes) + 64 * 1024);
            let mut snaps = Vec::with_capacity(ports * TrafficClass::COUNT);
            for port in 0..ports {
                for class_idx in 0..TrafficClass::COUNT {
                    let class = TrafficClass::new(class_idx as u8);
                    let port_id = PortId(port as u16);
                    let queued = sw.queue_bytes(port_id, class);
                    self.checks += 1;
                    if sw.class_is_lossless(class) {
                        if let Some(cap) = lossless_cap {
                            if queued > cap {
                                self.push(
                                    at,
                                    "switch.lossless_bound",
                                    format!(
                                        "switch {id:?} port {port} class {class_idx}: \
                                         {queued} B queued > PFC ceiling {cap} B"
                                    ),
                                );
                            }
                        }
                    } else if queued > capacity {
                        self.push(
                            at,
                            "switch.lossy_bound",
                            format!(
                                "switch {id:?} port {port} class {class_idx}: \
                                 {queued} B queued > capacity {capacity} B"
                            ),
                        );
                    }
                    let snap = LaneSnap {
                        paused: sw.tx_paused(port_id, class),
                        tx_frames: sw.tx_frames(port_id, class),
                    };
                    snaps.push(snap);
                }
            }
            if let Some(prev) = self.switch_prev.remove(&id).filter(|_| self.event_granular) {
                for (lane, (p, c)) in prev.iter().zip(snaps.iter()).enumerate() {
                    self.checks += 1;
                    if p.paused && c.paused && c.tx_frames != p.tx_frames {
                        let (port, class_idx) =
                            (lane / TrafficClass::COUNT, lane % TrafficClass::COUNT);
                        self.push(
                            at,
                            "switch.pfc_obedience",
                            format!(
                                "switch {id:?} port {port} class {class_idx}: transmitted \
                                 {} frame(s) while paused",
                                c.tx_frames - p.tx_frames
                            ),
                        );
                    }
                }
            }
            self.switch_prev.insert(id, snaps);
        }
    }

    fn check_shells<V: ComponentView>(&mut self, at: SimTime, engine: &V) {
        for idx in 0..self.shells.len() {
            let id = self.shells[idx];
            let Some(shell) = engine.view::<Shell>(id) else {
                continue;
            };
            let ltl = shell.ltl();
            let mut snap = ShellSnap {
                tor_paused: shell.tor_paused(TrafficClass::LTL),
                ltl_tx_frames: shell.stats_view().ltl_tx_frames,
                recv_expected: Vec::with_capacity(ltl.recv_conn_count()),
            };
            for conn in 0..ltl.recv_conn_count() {
                snap.recv_expected
                    .push(ltl.recv_expected_seq(conn as u16).unwrap_or_default());
            }
            if let Some(prev) = self.shell_prev.remove(&id) {
                self.checks += 1;
                if self.event_granular
                    && prev.tor_paused
                    && snap.tor_paused
                    && snap.ltl_tx_frames != prev.ltl_tx_frames
                {
                    self.push(
                        at,
                        "shell.pfc_obedience",
                        format!(
                            "shell {id:?} handed {} LTL frame(s) to a paused egress",
                            snap.ltl_tx_frames - prev.ltl_tx_frames
                        ),
                    );
                }
                for (conn, (p, c)) in prev
                    .recv_expected
                    .iter()
                    .zip(snap.recv_expected.iter())
                    .enumerate()
                {
                    self.checks += 1;
                    if !seq_le(*p, *c) {
                        self.push(
                            at,
                            "ltl.expected_monotonic",
                            format!(
                                "shell {id:?} recv conn {conn}: expected_seq moved \
                                 backward {p} -> {c}"
                            ),
                        );
                    }
                }
            }
            self.shell_prev.insert(id, snap);
        }
    }

    fn check_haas<V: ComponentView>(&mut self, at: SimTime, engine: &V) {
        let Some((monitor_id, addrs)) = self.monitor.clone() else {
            return;
        };
        let Some(monitor) = engine.view::<FailureMonitor>(monitor_id) else {
            return;
        };
        for addr in addrs {
            let cur = Self::node_state(monitor, addr);
            if let Some(prev) = self.node_prev.get(&addr) {
                self.checks += 1;
                let legal = match (prev, &cur) {
                    (a, b) if a == b => true,
                    (_, NodeSnap::Failed) => true,
                    (NodeSnap::Unallocated, NodeSnap::Leased(_)) => true,
                    (NodeSnap::Leased(_), NodeSnap::Unallocated) => true,
                    (NodeSnap::Failed, NodeSnap::Unallocated) => true, // repair
                    _ => false,
                };
                if !legal {
                    self.push(
                        at,
                        "haas.transition",
                        format!("node {addr}: illegal state transition {prev:?} -> {cur:?}"),
                    );
                }
            }
            self.node_prev.insert(addr, cur);
        }
    }
}

impl Observer<Msg> for InvariantObserver {
    fn after_event(&mut self, event: &EventRecord, engine: &Engine<Msg>) {
        self.check_now(event.at, engine);
    }
}
