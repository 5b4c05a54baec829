//! The six workloads. Each is built by the harness from the libraries'
//! public APIs, so set-up and the timed run can be clocked separately and
//! the benchmark's own observer can be attached from outside.

use std::collections::BTreeSet;

use bytes::Bytes;
use catapult::prelude::*;
use shell::ltl::SendConnId;
use shell::{LtlDeliver, ShellCmd};
use telemetry::HistogramSnapshot;

use crate::observer::{ClassCost, ClassObserver, EventSpan};

pub mod fleet_hybrid;
pub mod haas_elastic;
pub mod incast_lossy;
pub mod ltl_volley;
pub mod service_chaos;
pub mod sharded_volley;

/// A workload: its fixed name, why it is in the benchmark, and how to
/// build a fresh instance from a seed.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One sentence: which layers do the work here, and which do none.
    pub why: &'static str,
    /// Open or closed loop, with its rate or client count.
    pub load: &'static str,
    /// What one op is.
    pub op: &'static str,
    /// Everything before the first timed event.
    pub build: fn(seed: u64) -> Box<dyn Rig>,
    /// A variant build the traced pass also runs, to report how the plain
    /// run compares with it.
    pub comparison: Option<Comparison>,
    /// Per-layer metric that reports this workload's set-up span, where
    /// the set-up *is* a layer's work (`ChaosRig::build`).
    pub setup_ns_metric: Option<&'static str>,
    /// Per-layer metric that reports host nanoseconds per op, where the
    /// timed phase is one layer's work and nothing else.
    pub ns_per_op_metric: Option<&'static str>,
}

/// A variant of a workload (one shard, flight recorder on) whose
/// fingerprint must equal the plain run's and whose speed is reported
/// relative to it.
pub struct Comparison {
    /// Span name of the variant's repetition.
    pub label: &'static str,
    /// Per-layer metric the comparison is reported under.
    pub metric: &'static str,
    /// Builds the variant.
    pub build: fn(seed: u64) -> Box<dyn Rig>,
    /// The reported figure, from the plain run's and the variant's
    /// `ops_per_sec`.
    pub figure: fn(plain: f64, variant: f64) -> f64,
}

/// All workloads, in reporting order.
pub const ALL: [Workload; 6] = [
    ltl_volley::WORKLOAD,
    incast_lossy::WORKLOAD,
    fleet_hybrid::WORKLOAD,
    service_chaos::WORKLOAD,
    haas_elastic::WORKLOAD,
    sharded_volley::WORKLOAD,
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// One built instance of a workload, driven phase by phase.
pub trait Rig {
    /// Lets pools and queues fill before the clock starts (untimed).
    fn warmup(&mut self) {}

    /// Attaches the benchmark's class-accounting observer, if this
    /// workload runs on an engine that accepts one. Called after
    /// `warmup`, immediately before `timed`.
    fn attach_observer(&mut self) {}

    /// The timed phase.
    fn timed(&mut self);

    /// Reads results out, checks them, and tears the instance down.
    fn finish(self: Box<Self>) -> Outcome;
}

/// The latency sample of one repetition.
pub enum Latency {
    /// Every sample, in nanoseconds, unsorted.
    Samples(Vec<u64>),
    /// The program reports only a summary (`ChaosRig` keeps its samples
    /// private): count, median and 99.9th percentile in nanoseconds.
    Summary {
        count: u64,
        p50_ns: u64,
        p999_ns: u64,
    },
}

/// What one repetition produced. Everything here is a function of the
/// seed alone; host time is measured by the caller.
pub struct Outcome {
    /// Ops completed during the timed phase.
    pub ops: u64,
    /// Ops attempted over the whole run.
    pub attempted: u64,
    /// Ops that failed over the whole run.
    pub failed: u64,
    /// Simulated nanoseconds the timed phase covered.
    pub sim_ns: u64,
    /// Engine events dispatched during the timed phase (0: no engine).
    pub events: u64,
    /// The workload's latency sample.
    pub latency: Latency,
    /// Hash of every simulated statistic the run exposes.
    pub fingerprint: u64,
    /// Exact per-layer counters, by `<layer>.<metric>` name.
    pub counters: Vec<(&'static str, f64)>,
    /// Correctness-gate violations (empty = correct).
    pub violations: Vec<String>,
    /// Lines for the human-readable report (paper error, sizes).
    pub notes: Vec<String>,
    /// Shards the run executed on (1 = the plain engine).
    pub shards: u32,
    /// Worker threads it used.
    pub workers: u32,
    /// Per-class host cost and per-event spans, when the observer was
    /// attached.
    pub observed: Option<Observed>,
}

/// What the class observer collected during one timed phase.
#[derive(Default)]
pub struct Observed {
    /// Cost per class, indexed like [`CLASSES`].
    pub costs: Vec<ClassCost>,
    /// The first per-event spans.
    pub event_spans: Vec<EventSpan>,
}

impl Observed {
    /// Folds a second engine's observation into this one (a workload
    /// that runs two clusters back to back).
    pub fn absorb(&mut self, other: Observed) {
        if self.costs.is_empty() {
            self.costs = other.costs;
        } else {
            for (mine, theirs) in self.costs.iter_mut().zip(&other.costs) {
                mine.events += theirs.events;
                mine.busy_ns += theirs.busy_ns;
            }
        }
        let room = crate::observer::EVENT_SPAN_CAP.saturating_sub(self.event_spans.len());
        let offset = self.event_spans.last().map_or(0, |s| s.1 + s.2);
        self.event_spans.extend(
            other
                .event_spans
                .into_iter()
                .take(room)
                .map(|(class, start, dur)| (class, start + offset, dur)),
        );
    }
}

/// Component classes the observer charges host time to: the layer names
/// of the per-layer metrics.
pub const CLASSES: [&str; 6] = [
    "dcnet.switch",
    "shell.shell",
    "dcnet.flowsim",
    "core.workload",
    "bench.driver",
    "other",
];

/// Classifies a cluster component by downcast. The harness's own driver
/// components are charged to `bench.driver`, so their cost is never
/// mistaken for a layer's.
fn classify(engine: &Engine<Msg>, id: ComponentId) -> usize {
    if engine.component::<dcnet::Switch>(id).is_some() {
        0
    } else if engine.component::<Shell>(id).is_some() {
        1
    } else if engine.component::<FlowSim>(id).is_some() {
        2
    } else if engine.component::<FleetLoadGen>(id).is_some() {
        3
    } else if engine.component::<Initiator>(id).is_some()
        || engine.component::<Responder>(id).is_some()
        || engine.component::<incast_lossy::Submitter>(id).is_some()
        || engine.component::<incast_lossy::Sink>(id).is_some()
    {
        4
    } else {
        5
    }
}

/// Attaches a fresh class observer to an unsharded cluster.
fn observe(cluster: &mut Cluster) {
    cluster
        .engine_mut()
        .set_observer(Box::new(ClassObserver::new(CLASSES.len(), classify)));
}

/// Reads the class observer back out of a cluster, if one was attached.
fn observed(cluster: &Cluster) -> Option<Observed> {
    let obs = cluster.engine().observer_as::<ClassObserver<Msg>>()?;
    Some(Observed {
        costs: obs.costs().to_vec(),
        event_spans: obs.event_spans().to_vec(),
    })
}

/// FNV-1a over a serialized metrics dump: the determinism fingerprint.
pub fn fingerprint(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Percentage error of `measured` against a paper reference value.
fn paper_err_pct(measured: f64, paper: f64) -> f64 {
    (measured - paper) / paper * 100.0
}

/// The paper's Figure 10 mean LTL round trips per tier, in microseconds.
const PAPER_RTT_US: [(Tier, &str, f64); 3] = [
    (Tier::L0, "L0", 2.88),
    (Tier::L1, "L1", 7.72),
    (Tier::L2, "L2", 18.71),
];

/// Tolerated error against the paper's mean round trips, percent.
const PAPER_TOLERANCE_PCT: f64 = 2.0;

/// The merged LTL RTT histogram of the shells at `addrs`.
fn merged_rtts(snap: &MetricsSnapshot, addrs: &[NodeAddr]) -> HistogramSnapshot {
    let parts: Vec<&HistogramSnapshot> = addrs
        .iter()
        .filter_map(|a| snap.histogram(&format!("shell/{a}/ltl/rtt_ns")))
        .collect();
    HistogramSnapshot::merged(parts)
}

/// The `dcnet.switch`, `dcnet.dcqcn`, `shell.shell` and `shell.ltl` figures
/// every cluster workload reports: counters summed over the registry
/// snapshots of its clusters, plus the retransmit ratio and the payload
/// goodput over `sim_ns` of simulated time.
fn transport_counters(snaps: &[&MetricsSnapshot], sim_ns: u64, out: &mut Vec<(&'static str, f64)>) {
    const SUMMED: [(&str, &str); 14] = [
        ("dcnet.switch.rx_frames", "rx_frames"),
        ("dcnet.switch.dropped", "dropped"),
        ("dcnet.switch.ecn_marked", "ecn_marked"),
        ("dcnet.switch.pauses_sent", "pauses_sent"),
        ("dcnet.dcqcn.cnps_rx", "ltl/cnps_rx"),
        ("shell.shell.injected_drops", "injected_drops"),
        ("shell.shell.corrupt_drops", "corrupt_drops"),
        ("shell.ltl.data_sent", "ltl/data_sent"),
        ("shell.ltl.retransmits", "ltl/retransmits"),
        ("shell.ltl.timeouts", "ltl/timeouts"),
        ("shell.ltl.nacks_rx", "ltl/nacks_rx"),
        ("shell.ltl.sacks_rx", "ltl/sacks_rx"),
        ("shell.ltl.duplicates", "ltl/duplicates"),
        ("shell.ltl.msgs_delivered", "ltl/msgs_delivered"),
    ];
    let sum = |suffix: &str| snaps.iter().map(|s| s.sum_counters(suffix)).sum::<u64>() as f64;
    for (name, suffix) in SUMMED {
        out.push((name, sum(suffix)));
    }
    let sent = sum("ltl/data_sent");
    let ratio = if sent == 0.0 {
        0.0
    } else {
        sum("ltl/retransmits") / sent
    };
    out.push(("shell.ltl.retransmit_ratio", ratio));
    let bits = sum("ltl/bytes_delivered") * 8.0;
    out.push(("shell.ltl.goodput_gbps", bits / sim_ns.max(1) as f64));
}

/// Seeded draw of distinct host slots: never hands out the same address
/// twice, since a slot holds one shell.
struct SlotPicker {
    rng: dcsim::SimRng,
    used: BTreeSet<NodeAddr>,
    shape: FabricShape,
}

impl SlotPicker {
    fn new(seed: u64, shape: FabricShape) -> SlotPicker {
        SlotPicker {
            rng: dcsim::SimRng::seed_from(seed ^ 0xB3C4_0001_5107_5EED),
            used: BTreeSet::new(),
            shape,
        }
    }

    fn index(&mut self, n: u16) -> u16 {
        self.rng.index(n as usize) as u16
    }

    /// A free host slot under rack `(pod, tor)`.
    fn host_in(&mut self, pod: u16, tor: u16) -> NodeAddr {
        loop {
            let addr = NodeAddr::new(pod, tor, self.index(self.shape.hosts_per_tor));
            if self.used.insert(addr) {
                return addr;
            }
        }
    }

    /// A free host slot anywhere in `pod`.
    fn host_in_pod(&mut self, pod: u16) -> NodeAddr {
        let tor = self.index(self.shape.tors_per_pod);
        self.host_in(pod, tor)
    }

    /// A pair of free slots `tier` apart, the first in a pod below
    /// `pods`.
    fn pair(&mut self, tier: Tier, pods: u16) -> (NodeAddr, NodeAddr) {
        let pod = self.index(pods);
        let tor = self.index(self.shape.tors_per_pod);
        let a = self.host_in(pod, tor);
        let b = match tier {
            Tier::L0 => self.host_in(pod, tor),
            Tier::L1 => {
                let other =
                    (tor + 1 + self.index(self.shape.tors_per_pod - 1)) % self.shape.tors_per_pod;
                self.host_in(pod, other)
            }
            Tier::L2 => {
                let other = (pod + 1 + self.index(pods - 1)) % pods;
                self.host_in_pod(other)
            }
        };
        (a, b)
    }
}

/// Closed-loop initiator: keeps exactly one message outstanding on its
/// connection and counts a round trip each time the reply arrives.
pub struct Initiator {
    shell: ComponentId,
    conn: SendConnId,
    payload: Bytes,
    budget: u64,
    sent_at: SimTime,
    /// Message round-trip times (send to reply delivery), nanoseconds;
    /// pre-sized so recording never allocates.
    pub round_trips_ns: Vec<u64>,
}

impl Component<Msg> for Initiator {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<LtlDeliver>().is_ok() {
            self.round_trips_ns
                .push((ctx.now() - self.sent_at).as_nanos());
            if (self.round_trips_ns.len() as u64) < self.budget {
                self.sent_at = ctx.now();
                ctx.send(self.shell, ltl_send(self.conn, self.payload.clone()));
            }
        }
    }
}

/// Closed-loop responder: answers every delivery with one message.
pub struct Responder {
    shell: ComponentId,
    conn: SendConnId,
    payload: Bytes,
}

impl Component<Msg> for Responder {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<LtlDeliver>().is_ok() {
            ctx.send(self.shell, ltl_send(self.conn, self.payload.clone()));
        }
    }
}

fn ltl_send(conn: SendConnId, payload: Bytes) -> Msg {
    Msg::custom(ShellCmd::LtlSend {
        conn,
        vc: 0,
        payload,
    })
}

/// Populates both ends of `pair`, opens the LTL channel and installs a
/// closed-loop initiator/responder volley of `round_trips` exchanges of
/// `payload`, kicked off at time zero. Returns the initiator's id.
fn install_volley(
    cluster: &mut Cluster,
    (a, b): (NodeAddr, NodeAddr),
    payload: &Bytes,
    round_trips: u64,
) -> ComponentId {
    let a_shell = cluster.add_shell(a);
    let b_shell = cluster.add_shell(b);
    let (a_send, b_send, _, _) = cluster.connect_pair(a, b);
    let initiator = cluster.add_component_at(
        a,
        Initiator {
            shell: a_shell,
            conn: a_send,
            payload: payload.clone(),
            budget: round_trips,
            sent_at: SimTime::ZERO,
            round_trips_ns: Vec::with_capacity(round_trips as usize),
        },
    );
    let responder = cluster.add_component_at(
        b,
        Responder {
            shell: b_shell,
            conn: b_send,
            payload: payload.clone(),
        },
    );
    cluster.set_consumer(a, initiator);
    cluster.set_consumer(b, responder);
    cluster
        .engine_mut()
        .schedule(SimTime::ZERO, a_shell, ltl_send(a_send, payload.clone()));
    initiator
}

/// Round trips completed so far, summed over `initiators`.
fn round_trips_done(cluster: &Cluster, initiators: &[ComponentId]) -> u64 {
    initiators
        .iter()
        .filter_map(|&id| cluster.component::<Initiator>(id))
        .map(|i| i.round_trips_ns.len() as u64)
        .sum()
}

/// Simulated time that lets pools, queues and connection state warm up
/// before a cluster workload's clock starts.
const WARMUP: SimDuration = SimDuration::from_micros(200);
