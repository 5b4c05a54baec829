//! Transport A/B lane: the same workload driven through both LTL
//! retransmission modes — paper go-back-N with its fixed 50 µs timeout,
//! and selective repeat with the adaptive RFC 6298 RTO — over a shared
//! bottleneck link, and compared head to head.
//!
//! ```text
//! catapult ltl_ab [--quick] [--seed N] [--check-win]
//! ```
//!
//! Three scenarios, each run in both modes from the same seed:
//!
//! * `incast`: eight senders burst into one receiver behind a 5 Gbit/s
//!   bottleneck. Queueing delay alone exceeds the fixed go-back-N
//!   timeout, so GBN re-injects its whole window every round; selective
//!   repeat pays the same price once, then its RTO adapts to the
//!   measured queueing RTT.
//! * `lossy`: a 3 % i.i.d. lossy link. A single drop costs GBN its
//!   entire outstanding window; selective repeat retransmits exactly the
//!   missing frame and delivers the buffered remainder on arrival.
//! * `cross-dc`: 300 µs one-way latency with light loss. The 50 µs
//!   fixed timeout sits far below the 600 µs RTT, so GBN retransmits
//!   every frame several times before its first ack can possibly
//!   arrive; the adaptive RTO converges on the real RTT after one
//!   exchange.
//!
//! Everything is seeded and event-driven, so a repeated run with the
//! same seed produces a byte-identical `results/ltl_ab.json` — the quick
//! report for seed 7 is a golden file (`tests/golden.rs`), and
//! `--check-win` exits nonzero unless selective repeat beats go-back-N on
//! goodput or p99 latency in at least one scenario.

use crate::{output, Args};
use bytes::Bytes;
use dcnet::{Msg, NetEvent, NodeAddr, PortId};
use dcsim::{
    fnv1a, Component, ComponentId, Context, Engine, SimDuration, SimRng, SimTime, FNV1A_OFFSET,
};
use serde::Serialize;
use shell::ltl::{Endpoint, LtlConfig, LtlEngine, LtlEvent, LtlMode};

const TIMER_LTL: u64 = 1;

/// Ethernet/IP/UDP framing bytes added to each LTL frame on the wire.
const WIRE_OVERHEAD: usize = 42;

/// Command scheduled at a sender: submit one message.
struct SendCmd {
    counter: u64,
}

/// One endpoint, sending or receiving: a real LTL engine driven by the
/// shell's own [`Endpoint`]. A sender submits `SendCmd`s; the receiver
/// records per-message latency from the submit timestamp embedded in
/// each payload.
struct Node {
    ltl: Endpoint<TIMER_LTL>,
    link: ComponentId,
    msg_len: usize,
    latencies_ns: Vec<u64>,
    delivered_bytes: u64,
    last_delivery: SimTime,
}

impl Node {
    fn new(ltl: LtlEngine, link: ComponentId, msg_len: usize) -> Node {
        Node {
            ltl: Endpoint::new(ltl),
            link,
            msg_len,
            latencies_ns: Vec::new(),
            delivered_bytes: 0,
            last_delivery: SimTime::ZERO,
        }
    }

    fn pump(&mut self, ctx: &mut Context<'_, Msg>) {
        let link = self.link;
        self.ltl.pump(ctx, |ctx, pkt, _| {
            ctx.send(link, Msg::packet(pkt, PortId(0)))
        });
    }
}

impl Component<Msg> for Node {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::Net(NetEvent::Packet { pkt, .. }) => {
                let (latencies, bytes, last) = (
                    &mut self.latencies_ns,
                    &mut self.delivered_bytes,
                    &mut self.last_delivery,
                );
                self.ltl.on_packet(&pkt, ctx, |ctx, ev| {
                    if let LtlEvent::Deliver { payload, .. } = ev {
                        if payload.len() >= 16 {
                            let mut ts = [0u8; 8];
                            ts.copy_from_slice(&payload[8..16]);
                            let submitted = u64::from_be_bytes(ts);
                            latencies.push(ctx.now().as_nanos().saturating_sub(submitted));
                        }
                        *bytes += payload.len() as u64;
                        *last = ctx.now();
                    }
                });
            }
            other => {
                if let Ok(cmd) = other.downcast::<SendCmd>() {
                    // Head of the payload carries the message counter and
                    // its submit time, so the receiver measures latency
                    // without any state shared outside the wire.
                    let mut payload = vec![0u8; self.msg_len];
                    payload[..8].copy_from_slice(&cmd.counter.to_be_bytes());
                    payload[8..16].copy_from_slice(&ctx.now().as_nanos().to_be_bytes());
                    let _ = self
                        .ltl
                        .engine_mut()
                        .send_message(0, 0, Bytes::from(payload));
                }
            }
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, Msg>) {
        self.ltl.on_timer(ctx, |_, _| {});
        self.pump(ctx);
    }
}

/// The network between the senders and the receiver: fixed one-way
/// latency each direction, seeded i.i.d. loss, and FIFO serialisation at
/// a bottleneck in front of the receiver so incast builds a real queue.
struct Link {
    receiver: ComponentId,
    recv_addr: NodeAddr,
    senders: Vec<(NodeAddr, ComponentId)>,
    one_way: SimDuration,
    loss_ppm: u32,
    bandwidth_bps: f64,
    free_at: SimTime,
    rng: SimRng,
    drops: u64,
}

impl Component<Msg> for Link {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let Msg::Net(NetEvent::Packet { pkt, .. }) = msg else {
            return;
        };
        if self.loss_ppm > 0 && self.rng.chance(self.loss_ppm as f64 / 1e6) {
            self.drops += 1;
            return;
        }
        let now = ctx.now();
        if pkt.dst == self.recv_addr {
            // Propagation, then the shared bottleneck: a frame starts
            // serialising when it arrives and the line is free.
            let bits = ((pkt.payload.len() + WIRE_OVERHEAD) * 8) as f64;
            let ser = SimDuration::from_secs_f64(bits / self.bandwidth_bps);
            let earliest = now + self.one_way;
            let start = if self.free_at > earliest {
                self.free_at
            } else {
                earliest
            };
            let arrival = start + ser;
            self.free_at = arrival;
            ctx.send_after(
                arrival.saturating_since(now),
                self.receiver,
                Msg::packet(pkt, PortId(0)),
            );
        } else if let Some(&(_, id)) = self.senders.iter().find(|(a, _)| *a == pkt.dst) {
            // Ack path: plain propagation, no bottleneck.
            ctx.send_after(self.one_way, id, Msg::packet(pkt, PortId(0)));
        }
    }
}

/// One A/B scenario: a workload plus the link it runs over.
struct Scenario {
    name: &'static str,
    senders: usize,
    one_way: SimDuration,
    loss_ppm: u32,
    bandwidth_bps: f64,
    msgs_per_sender: usize,
    msg_len: usize,
    /// `true`: all senders submit together in periodic rounds (incast
    /// bursts); `false`: submissions spread uniformly over a window.
    burst: bool,
}

impl Scenario {
    fn all(quick: bool) -> Vec<Scenario> {
        let scale = |n: usize| if quick { n / 5 + 2 } else { n };
        vec![
            Scenario {
                name: "incast",
                senders: 8,
                one_way: SimDuration::from_nanos(1_200),
                loss_ppm: 0,
                bandwidth_bps: 5e9,
                msgs_per_sender: scale(40),
                msg_len: 8 * 1024,
                burst: true,
            },
            Scenario {
                name: "lossy",
                senders: 2,
                one_way: SimDuration::from_micros(5),
                loss_ppm: 30_000,
                bandwidth_bps: 10e9,
                msgs_per_sender: scale(150),
                msg_len: 8 * 1024,
                burst: false,
            },
            Scenario {
                name: "cross-dc",
                senders: 2,
                one_way: SimDuration::from_micros(300),
                loss_ppm: 5_000,
                bandwidth_bps: 10e9,
                msgs_per_sender: scale(80),
                msg_len: 8 * 1024,
                burst: false,
            },
        ]
    }

    /// Interval between incast rounds / mean gap between spread sends.
    fn submit_interval(&self) -> SimDuration {
        if self.burst {
            SimDuration::from_micros(150)
        } else {
            SimDuration::from_micros(50)
        }
    }
}

/// Raw outcome of one (scenario, mode) run.
struct ModeRun {
    delivered: u64,
    delivered_bytes: u64,
    latencies_ns: Vec<u64>,
    makespan_ns: u64,
    link_drops: u64,
    data_sent: u64,
    retransmits: u64,
    timeouts: u64,
    sacks_tx: u64,
    sacks_rx: u64,
    duplicates: u64,
    conn_failures: u64,
    events: u64,
}

fn run_mode(sc: &Scenario, mode: LtlMode, seed: u64) -> ModeRun {
    let mut engine: Engine<Msg> = Engine::new(seed);

    let cfg = LtlConfig::default().without_dcqcn().with_mode(mode);
    let msg_len = sc.msg_len.max(16);

    let recv_addr = NodeAddr::new(0, 0, 0);
    let sender_addrs: Vec<NodeAddr> = (0..sc.senders)
        .map(|i| NodeAddr::new(0, 1, i as u16))
        .collect();

    let mut recv_ltl = LtlEngine::new(recv_addr, cfg.clone());
    let link_id = engine.next_component_id();
    let recv_id = ComponentId::from_raw(link_id.as_raw() + 1);
    let sender_ids: Vec<ComponentId> = (0..sc.senders)
        .map(|i| ComponentId::from_raw(link_id.as_raw() + 2 + i))
        .collect();

    let mut senders = Vec::new();
    for &addr in &sender_addrs {
        let rid = recv_ltl.add_recv(addr);
        let mut ltl = LtlEngine::new(addr, cfg.clone());
        ltl.add_send(recv_addr, rid);
        senders.push(Node::new(ltl, link_id, msg_len));
    }

    let link = Link {
        receiver: recv_id,
        recv_addr,
        senders: sender_addrs
            .iter()
            .copied()
            .zip(sender_ids.iter().copied())
            .collect(),
        one_way: sc.one_way,
        loss_ppm: sc.loss_ppm,
        bandwidth_bps: sc.bandwidth_bps,
        free_at: SimTime::ZERO,
        rng: SimRng::seed_from(seed ^ 0xAB_1117),
        drops: 0,
    };
    assert_eq!(engine.add_component(link), link_id);
    assert_eq!(
        engine.add_component(Node::new(recv_ltl, link_id, msg_len)),
        recv_id
    );
    for (sender, &id) in senders.into_iter().zip(&sender_ids) {
        assert_eq!(engine.add_component(sender), id);
    }

    // Submission schedule, from a dedicated stream so the workload is
    // identical in both modes.
    let mut rng = SimRng::seed_from(seed ^ 0x5CED_0717);
    let interval = sc.submit_interval();
    for (s, &id) in sender_ids.iter().enumerate() {
        for counter in 0..sc.msgs_per_sender {
            let at = if sc.burst {
                // Every sender fires in the same round, microseconds
                // apart: the classic synchronized incast pattern.
                SimTime::from_nanos(counter as u64 * interval.as_nanos() + s as u64 * 50)
            } else {
                SimTime::from_nanos(
                    (rng.uniform() * (sc.msgs_per_sender as f64) * interval.as_nanos() as f64)
                        as u64,
                )
            };
            engine.schedule(
                at,
                id,
                Msg::custom(SendCmd {
                    counter: counter as u64,
                }),
            );
        }
    }

    let events = engine.run_to_idle();

    let mut run = ModeRun {
        delivered: 0,
        delivered_bytes: 0,
        latencies_ns: Vec::new(),
        makespan_ns: 0,
        link_drops: engine
            .component::<Link>(link_id)
            .map(|l| l.drops)
            .unwrap_or(0),
        data_sent: 0,
        retransmits: 0,
        timeouts: 0,
        sacks_tx: 0,
        sacks_rx: 0,
        duplicates: 0,
        conn_failures: 0,
        events,
    };
    {
        let recv = engine
            .component::<Node>(recv_id)
            .expect("receiver attached above");
        run.delivered = recv.latencies_ns.len() as u64;
        run.delivered_bytes = recv.delivered_bytes;
        run.latencies_ns = recv.latencies_ns.clone();
        run.makespan_ns = recv.last_delivery.as_nanos();
        let stats = recv.ltl.engine().stats_view();
        run.sacks_tx = stats.sacks_tx;
        run.duplicates = stats.duplicates;
    }
    for &id in &sender_ids {
        let stats = engine
            .component::<Node>(id)
            .expect("sender attached above")
            .ltl
            .engine()
            .stats_view();
        run.data_sent += stats.data_sent;
        run.retransmits += stats.retransmits;
        run.timeouts += stats.timeouts;
        run.sacks_rx += stats.sacks_rx;
        run.conn_failures += stats.conn_failures;
    }
    run.latencies_ns.sort_unstable();
    run
}

fn percentile(sorted_ns: &[u64], q: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

#[derive(Serialize)]
struct ModeResult {
    mode: String,
    delivered_msgs: u64,
    delivered_bytes: u64,
    goodput_gbps: f64,
    p50_us: f64,
    p99_us: f64,
    makespan_us: f64,
    data_sent: u64,
    retransmits: u64,
    timeouts: u64,
    sacks_tx: u64,
    sacks_rx: u64,
    duplicates: u64,
    conn_failures: u64,
    link_drops: u64,
    sim_events: u64,
    fingerprint: String,
}

impl ModeResult {
    fn from_run(sc: &Scenario, mode: LtlMode, run: &ModeRun) -> ModeResult {
        let p50_ns = percentile(&run.latencies_ns, 0.50);
        let p99_ns = percentile(&run.latencies_ns, 0.99);
        let goodput_gbps = if run.makespan_ns > 0 {
            run.delivered_bytes as f64 * 8.0 / run.makespan_ns as f64
        } else {
            0.0
        };
        // Integer-only canonical line: float formatting never feeds the
        // fingerprint.
        let canonical = format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            sc.name,
            mode.name(),
            run.delivered,
            run.delivered_bytes,
            run.makespan_ns,
            p50_ns,
            p99_ns,
            run.data_sent,
            run.retransmits,
            run.timeouts,
            run.sacks_tx,
            run.sacks_rx,
            run.duplicates,
            run.link_drops,
        );
        ModeResult {
            mode: mode.name().to_string(),
            delivered_msgs: run.delivered,
            delivered_bytes: run.delivered_bytes,
            goodput_gbps,
            p50_us: p50_ns as f64 / 1_000.0,
            p99_us: p99_ns as f64 / 1_000.0,
            makespan_us: run.makespan_ns as f64 / 1_000.0,
            data_sent: run.data_sent,
            retransmits: run.retransmits,
            timeouts: run.timeouts,
            sacks_tx: run.sacks_tx,
            sacks_rx: run.sacks_rx,
            duplicates: run.duplicates,
            conn_failures: run.conn_failures,
            link_drops: run.link_drops,
            sim_events: run.events,
            fingerprint: format!("{:016x}", fnv1a(FNV1A_OFFSET, canonical.as_bytes())),
        }
    }
}

#[derive(Serialize)]
struct ScenarioResult {
    scenario: String,
    expected_msgs: u64,
    gbn: ModeResult,
    sr: ModeResult,
    /// Positive when selective repeat moves more bytes per unit time.
    sr_goodput_gain_pct: f64,
    /// Positive when selective repeat has the lower tail latency.
    sr_p99_gain_pct: f64,
    sr_wins: bool,
}

#[derive(Serialize)]
struct Report {
    experiment: String,
    seed: u64,
    quick: bool,
    scenarios: Vec<ScenarioResult>,
    sr_win_count: usize,
}

pub fn run(args: &Args) {
    output::header("ltl_ab", "transport A/B: go-back-N vs selective repeat");
    let quick = args.switch("--quick");
    let seed = args.value("--seed").unwrap_or(7);
    let check_win = args.switch("--check-win");

    println!(
        "{:<10} {:<4} {:>9} {:>9} {:>9} {:>9} {:>7} {:>8} {:>7}",
        "scenario",
        "mode",
        "delivered",
        "gput_gbps",
        "p50_us",
        "p99_us",
        "retx",
        "timeouts",
        "drops"
    );

    let mut scenarios = Vec::new();
    let mut wins = 0usize;
    for sc in Scenario::all(quick) {
        let gbn_run = run_mode(&sc, LtlMode::GoBackN, seed);
        let gbn = ModeResult::from_run(&sc, LtlMode::GoBackN, &gbn_run);
        let sr_run = run_mode(&sc, LtlMode::SelectiveRepeat, seed);
        let sr = ModeResult::from_run(&sc, LtlMode::SelectiveRepeat, &sr_run);
        for r in [&gbn, &sr] {
            println!(
                "{:<10} {:<4} {:>9} {:>9.3} {:>9.1} {:>9.1} {:>7} {:>8} {:>7}",
                sc.name,
                r.mode,
                r.delivered_msgs,
                r.goodput_gbps,
                r.p50_us,
                r.p99_us,
                r.retransmits,
                r.timeouts,
                r.link_drops,
            );
        }
        let goodput_gain = if gbn.goodput_gbps > 0.0 {
            (sr.goodput_gbps - gbn.goodput_gbps) / gbn.goodput_gbps * 100.0
        } else {
            0.0
        };
        let p99_gain = if gbn.p99_us > 0.0 {
            (gbn.p99_us - sr.p99_us) / gbn.p99_us * 100.0
        } else {
            0.0
        };
        let sr_wins = sr.goodput_gbps > gbn.goodput_gbps || sr.p99_us < gbn.p99_us;
        if sr_wins {
            wins += 1;
        }
        println!(
            "  -> sr goodput {goodput_gain:+.1}%, p99 {p99_gain:+.1}% ({})",
            if sr_wins { "sr wins" } else { "gbn holds" }
        );
        scenarios.push(ScenarioResult {
            scenario: sc.name.to_string(),
            expected_msgs: (sc.senders * sc.msgs_per_sender) as u64,
            gbn,
            sr,
            sr_goodput_gain_pct: goodput_gain,
            sr_p99_gain_pct: p99_gain,
            sr_wins,
        });
    }

    let report = Report {
        experiment: "ltl_ab".to_string(),
        seed,
        quick,
        scenarios,
        sr_win_count: wins,
    };
    output::write_json("ltl_ab", &report);

    println!(
        "selective repeat wins {wins}/{} scenario(s)",
        report.scenarios.len()
    );
    if check_win && wins == 0 {
        println!("FAIL: selective repeat beat go-back-N nowhere");
        std::process::exit(1);
    }
}
