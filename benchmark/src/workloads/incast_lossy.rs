//! `incast_lossy`: many senders into two receivers through the full
//! cluster, in three phases: spread-out traffic with injected egress loss
//! under go-back-N and again under selective repeat, then synchronized
//! incast rounds under selective repeat.

use shell::ltl::LtlMode;

use super::*;

/// Senders, each in its own rack.
const SENDERS: usize = 16;
/// Receivers (one per pod).
const RECEIVERS: usize = 2;
/// Message size: 6 MTU frames.
const MSG_BYTES: usize = 8 * 1024;
/// Egress loss injected on every second sender in a lossy phase: the eight
/// in pod 0, so one receiver hears only lossy senders and the other none.
const LOSS_RATE: f64 = 0.01;
const PODS: u16 = 2;

/// PFC thresholds of every switch in this workload's fabric, a quarter of
/// the defaults (256 / 128 KiB). With the defaults DC-QCN keeps every
/// ingress buffer below XOFF until the load is past a cliff (see
/// [`PHASES`]), so PFC either fires 2-7 times a run or inside a
/// retransmission storm; with these a round's burst crosses XOFF at the
/// aggregation switch every time, and the pause / resume path runs several
/// hundred times a run in a calm regime.
const PFC: dcnet::PfcConfig = dcnet::PfcConfig {
    xoff_bytes: 64 * 1024,
    xon_bytes: 32 * 1024,
};

/// LTL retries before a connection is declared failed and its queued
/// messages are never delivered (default 8). Spine jitter reorders the
/// frames of a message, every reordering makes go-back-N re-send its
/// window, and at the default budget one seed in 20 loses a connection to
/// a run of them.
const MAX_RETRIES: u32 = 32;

/// One pass over the same placement. Eight senders share a receiver.
struct Phase {
    label: &'static str,
    mode: LtlMode,
    /// Whether every second sender drops [`LOSS_RATE`] of its frames.
    lossy: bool,
    /// Messages each sender submits.
    msgs: u64,
    /// Messages a sender submits back to back each time its timer fires.
    burst: u64,
    /// Mean gap between a sender's submissions; each gap is drawn
    /// uniformly from (1 +- `spread`) x this.
    mean_gap: SimDuration,
    spread: f64,
    /// `true`: every sender starts within 2 us of the others, so each
    /// submission is an incast round. `false`: senders start at a random
    /// phase of the gap and drift through every overlap pattern.
    aligned: bool,
}

/// Measured here, and the reason the phases differ.
///
/// Go-back-N's fixed 50 us timeout is shorter than the queueing delay of a
/// filled switch queue, so under incast it re-sends whole windows until its
/// connections exhaust their retries: with 64 KiB messages at 262 us gaps
/// it delivers half of them, whatever the retry budget. So loss recovery is
/// measured in both modes under a spread-out 5 Gb/s per receiver, and
/// congestion in selective repeat only: rounds of 8 x 64 KiB into each
/// 40 Gb/s receiver queue up at the aggregation switch past the ECN and PFC
/// thresholds, and DC-QCN throttles the senders. Selective repeat has a
/// cliff of its own: at 96 KiB per sender and round a quarter of the seeds,
/// and at 108 KiB most, enter a retransmission storm in which the 99.9th
/// percentile latency and the peak heap vary tenfold and twofold with the
/// seed. At 64 KiB none of 24 seeds does.
///
/// The rounds inject no loss: a frame lost under congestion is recovered
/// 0.2-0.4 ms late or not, by chance, and the 99.9th percentile of the
/// workload moved 20 % with the seed. Congestion alone already makes
/// selective repeat time out 3,000 times and re-send 11,000 frames a run.
const PHASES: [Phase; 3] = [
    Phase {
        label: "go-back-N, lossy",
        mode: LtlMode::GoBackN,
        lossy: true,
        msgs: 1_600,
        burst: 1,
        mean_gap: SimDuration::from_micros(100),
        spread: 0.5,
        aligned: false,
    },
    Phase {
        label: "selective repeat, lossy",
        mode: LtlMode::SelectiveRepeat,
        lossy: true,
        msgs: 800,
        burst: 1,
        mean_gap: SimDuration::from_micros(100),
        spread: 0.5,
        aligned: false,
    },
    Phase {
        label: "selective repeat, incast",
        mode: LtlMode::SelectiveRepeat,
        lossy: false,
        msgs: 800,
        burst: 8,
        mean_gap: SimDuration::from_micros(333),
        spread: 0.02,
        aligned: true,
    },
];

pub const WORKLOAD: Workload = Workload {
    name: "incast_lossy",
    why: "the recovery path of shell.ltl (timeouts, NACK/SACK, RTO) in both modes, and in the \
          incast rounds filled dcnet.switch queues (ECN marks, PFC pauses) and dcnet.dcqcn; \
          multi-frame payloads expose per-byte copies; a fast-path gain bought by slowing \
          recovery, or a refactor that hurts one LTL mode, shows here and not on ltl_volley",
    load: "open loop, 16 senders -> 2 receivers across the spines, 8 KiB messages; with 1 % \
           egress loss on 8 senders, one message per sender at gaps of 50-150 us, in \
           go-back-N and in selective repeat; then, without loss, selective-repeat rounds of \
           8 messages from every sender at once, every 333 us; PFC XOFF at 64 KiB",
    op: "message delivered",
    build,
    comparison: None,
    setup_ns_metric: None,
    ns_per_op_metric: None,
};

/// Timer token for the next submission.
const SUBMIT: u64 = 1;

/// Open-loop message source: submits on schedule whether or not earlier
/// messages have been delivered. The head of each payload carries the
/// message number and its due time, so the receiver measures latency
/// from when the message was due, with no state shared off the wire.
pub struct Submitter {
    phase: &'static Phase,
    shell: ComponentId,
    conn: SendConnId,
    left: u64,
    counter: u64,
    gaps: dcsim::SimRng,
}

impl Component<Msg> for Submitter {
    fn on_message(&mut self, _msg: Msg, ctx: &mut Context<'_, Msg>) {
        self.on_timer(SUBMIT, ctx);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, Msg>) {
        if self.left == 0 {
            return;
        }
        let p = self.phase;
        for _ in 0..p.burst.min(self.left) {
            self.left -= 1;
            let mut payload = vec![0u8; MSG_BYTES];
            payload[..8].copy_from_slice(&self.counter.to_be_bytes());
            payload[8..16].copy_from_slice(&ctx.now().as_nanos().to_be_bytes());
            self.counter += 1;
            ctx.send(self.shell, ltl_send(self.conn, Bytes::from(payload)));
        }
        let gap =
            p.mean_gap.as_nanos() as f64 * self.gaps.uniform_range(1.0 - p.spread, 1.0 + p.spread);
        ctx.timer_after(SimDuration::from_nanos(gap as u64), SUBMIT);
    }
}

/// Receiver-side consumer: records submit-to-deliver latency.
pub struct Sink {
    latencies_ns: Vec<u64>,
}

impl Component<Msg> for Sink {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Ok(d) = msg.downcast::<LtlDeliver>() {
            let mut due = [0u8; 8];
            due.copy_from_slice(&d.payload[8..16]);
            self.latencies_ns
                .push(ctx.now().as_nanos() - u64::from_be_bytes(due));
        }
    }
}

struct PhaseRun {
    cluster: Cluster,
    sinks: Vec<ComponentId>,
    warm_done: u64,
    warm_at: SimTime,
}

impl PhaseRun {
    fn delivered(&self) -> u64 {
        self.sinks
            .iter()
            .filter_map(|&id| self.cluster.component::<Sink>(id))
            .map(|s| s.latencies_ns.len() as u64)
            .sum()
    }
}

struct Incast {
    runs: Vec<PhaseRun>,
    observe: bool,
    timed_events: u64,
}

fn build_phase(seed: u64, phase: &'static Phase) -> PhaseRun {
    let ltl = shell::ltl::LtlConfig::default()
        .with_mode(phase.mode)
        .with_max_retries(MAX_RETRIES);
    let mut fabric = calib::fabric_config(calib::paper_shape(PODS));
    for switch in [&mut fabric.tor, &mut fabric.agg, &mut fabric.spine] {
        switch.pfc = Some(PFC);
    }
    let mut cluster = ClusterBuilder::paper(seed, PODS)
        .fabric_config(&fabric)
        .shell_config(calib::shell_config().with_ltl(ltl))
        .build();
    let shape = cluster.fabric().shape();
    let mut picker = SlotPicker::new(seed, shape);
    let mut rng = dcsim::SimRng::seed_from(seed ^ 0x1CA5_7000_0000_0001);

    let receivers: Vec<NodeAddr> = (0..RECEIVERS as u16)
        .map(|pod| picker.host_in_pod(pod))
        .collect();
    let mut sinks = Vec::new();
    for &r in &receivers {
        cluster.add_shell(r);
        let sink = cluster.add_component_at(
            r,
            Sink {
                latencies_ns: Vec::with_capacity(SENDERS / RECEIVERS * phase.msgs as usize),
            },
        );
        cluster.set_consumer(r, sink);
        sinks.push(sink);
    }

    // Distinct racks, alternating pods, each sender to the receiver in the
    // other pod: every message crosses the spines. With half of a
    // receiver's senders in its own pod the latency sample has two modes
    // (10 us within a pod, 45 us across) and its median sits between them,
    // moving 16 % with the seed.
    let mut racks: Vec<u16> = (0..shape.tors_per_pod).collect();
    rng.shuffle(&mut racks);
    for i in 0..SENDERS {
        let pod = (i % PODS as usize) as u16;
        let addr = picker.host_in(pod, racks[i / PODS as usize]);
        let receiver = receivers[1 - pod as usize];
        let shell = cluster.add_shell(addr);
        let (conn, _, _, _) = cluster.connect_pair(addr, receiver);
        let submitter = cluster.add_component_at(
            addr,
            Submitter {
                phase,
                shell,
                conn,
                left: phase.msgs,
                counter: 0,
                gaps: rng.fork(),
            },
        );
        let window = if phase.aligned {
            2_000
        } else {
            phase.mean_gap.as_nanos()
        };
        let start = SimTime::from_nanos(rng.index(window as usize) as u64);
        let engine = cluster.engine_mut();
        engine.schedule(start, submitter, Msg::custom(host::StartGenerator));
        if phase.lossy && i % 2 == 0 {
            engine.schedule(
                SimTime::ZERO,
                shell,
                Msg::custom(ShellCmd::SetLtlLossRate(LOSS_RATE)),
            );
        }
    }
    PhaseRun {
        cluster,
        sinks,
        warm_done: 0,
        warm_at: SimTime::ZERO,
    }
}

fn build(seed: u64) -> Box<dyn Rig> {
    Box::new(Incast {
        runs: PHASES.iter().map(|p| build_phase(seed, p)).collect(),
        observe: false,
        timed_events: 0,
    })
}

impl Rig for Incast {
    fn warmup(&mut self) {
        for m in &mut self.runs {
            m.cluster.run_for(WARMUP);
            m.warm_done = m.delivered();
            m.warm_at = m.cluster.now();
        }
    }

    fn attach_observer(&mut self) {
        self.observe = true;
    }

    fn timed(&mut self) {
        for m in &mut self.runs {
            // Each cluster gets its observer as its own run starts, so the
            // previous phase's run is never charged to its first event.
            if self.observe {
                observe(&mut m.cluster);
            }
            self.timed_events += m.cluster.run_to_idle();
        }
    }

    fn finish(self: Box<Self>) -> Outcome {
        let attempted: u64 = PHASES.iter().map(|p| SENDERS as u64 * p.msgs).sum();
        let mut ops = 0;
        let mut done = 0;
        let mut sim_ns = 0;
        let mut latencies = Vec::with_capacity(attempted as usize);
        let mut observation: Option<Observed> = None;
        let mut notes = vec!["unvalidated (the paper gives no incast figure)".to_string()];
        let snaps: Vec<MetricsSnapshot> = self
            .runs
            .iter()
            .map(|m| m.cluster.metrics_snapshot())
            .collect();

        for ((m, phase), snap) in self.runs.iter().zip(&PHASES).zip(&snaps) {
            let delivered = m.delivered();
            let span_ns = (m.cluster.now() - m.warm_at).as_nanos();
            ops += delivered - m.warm_done;
            done += delivered;
            sim_ns += span_ns;
            for &id in &m.sinks {
                if let Some(s) = m.cluster.component::<Sink>(id) {
                    latencies.extend_from_slice(&s.latencies_ns);
                }
            }
            notes.push(format!(
                "{}: delivered {delivered}/{}, retransmits {}, timeouts {}, ecn marks {}, pfc pauses {}, cnps {}, {:.1} sim-ms",
                phase.label,
                SENDERS as u64 * phase.msgs,
                snap.sum_counters("ltl/retransmits"),
                snap.sum_counters("ltl/timeouts"),
                snap.sum_counters("ecn_marked"),
                snap.sum_counters("pauses_sent"),
                snap.sum_counters("ltl/cnps_rx"),
                span_ns as f64 / 1e6,
            ));
            if let Some(o) = observed(&m.cluster) {
                observation.get_or_insert_with(Observed::default).absorb(o);
            }
        }

        let mut counters = Vec::new();
        transport_counters(&snaps.iter().collect::<Vec<_>>(), sim_ns, &mut counters);
        let mut violations = Vec::new();
        // The workload is here for recovery and congestion control: a
        // run in which one of them never engaged measured something else.
        for (suffix, what) in [
            ("injected_drops", "loss injection dropped no frame"),
            ("ecn_marked", "no switch queue reached the ECN threshold"),
            ("pauses_sent", "no switch sent a PFC pause"),
            ("ltl/cnps_rx", "DC-QCN received no congestion notification"),
        ] {
            if snaps.iter().all(|s| s.sum_counters(suffix) == 0) {
                violations.push(what.to_string());
            }
        }
        let dumps: String = snaps.iter().map(MetricsSnapshot::to_json).collect();
        Outcome {
            ops,
            attempted,
            failed: attempted - done,
            sim_ns,
            events: self.timed_events,
            latency: Latency::Samples(latencies),
            fingerprint: fingerprint(&dumps),
            counters,
            violations,
            notes,
            shards: 1,
            workers: 1,
            observed: observation,
        }
    }
}
