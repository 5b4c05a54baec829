//! Layer probes: spans around direct calls into each layer's public,
//! engine-free API. They answer "what does this layer cost on its own?",
//! which the whole-workload observer cannot: it only sees a handler's
//! total. No probe depends on a workload: a traced pass runs them once,
//! whichever workloads it covers, and each reports the median over its
//! batches.

use std::hint::black_box;
use std::time::{Duration, Instant};

use apps::crypto::{cbc_sha1_seal, Aes, AesGcm};
use apps::dnn::Mlp;
use apps::ranking::{dpf_features, CorpusGen, FfuBank};
use bytes::Bytes;
use catapult::elastic::{generate_trace, run_trace, standard_region_alms};
use catapult::prelude::*;
use dcnet::{DcqcnConfig, DcqcnRp, Packet, TrafficClass, LTL_UDP_PORT};
use dcsim::SimRng;
use haas::ElasticConfig;
use shell::ltl::{FrameKind, LtlEngine, LtlEvent, LtlFrame, LtlMode, Poll};
use shell::{ElasticRouter, ErConfig, Flit, LtlDeliver, ShellCmd};
use telemetry::Histogram;

use crate::alloc;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{fingerprint, haas_elastic};

/// Batches every probe runs at least, whatever its time budget.
const MIN_BATCHES: usize = 5;

/// What the probes add to the per-layer metrics, plus any gate violation
/// (a known-answer check that failed, fingerprints that diverged).
#[derive(Default)]
pub struct ProbeResults {
    /// `<layer>.<metric>` values.
    pub metrics: Vec<(&'static str, f64)>,
    /// Correctness-gate violations.
    pub violations: Vec<String>,
}

/// One timed batch: units of work done and how long they took.
type Batch = (u64, Duration);

struct Prober<'a> {
    rec: &'a mut Recorder,
    budget: Duration,
    out: ProbeResults,
}

impl Prober<'_> {
    /// Runs `batch` inside a span until the budget is spent (and at least
    /// [`MIN_BATCHES`] times); returns the median nanoseconds per unit.
    fn ns_per_unit(&mut self, name: &'static str, mut batch: impl FnMut() -> Batch) -> f64 {
        let budget = self.budget;
        let (samples, _) = self.rec.span(&format!("probe:{name}"), |_| {
            let started = Instant::now();
            let mut samples = Vec::new();
            while samples.len() < MIN_BATCHES || started.elapsed() < budget {
                let (units, took) = batch();
                samples.push(took.as_nanos() as f64 / units.max(1) as f64);
            }
            samples
        });
        median(&samples)
    }

    /// As [`Prober::ns_per_unit`], recording the result under `name`.
    fn probe(&mut self, name: &'static str, batch: impl FnMut() -> Batch) {
        let v = self.ns_per_unit(name, batch);
        self.out.metrics.push((name, v));
    }
}

/// Times `f` over `units` units of work.
fn timed(units: u64, f: impl FnOnce()) -> Batch {
    let start = Instant::now();
    f();
    (units, start.elapsed())
}

/// Runs every layer probe, each for about `budget`.
pub fn run_all(rec: &mut Recorder, seed: u64, budget: Duration) -> ProbeResults {
    let mut p = Prober {
        rec,
        budget,
        out: ProbeResults::default(),
    };
    engine_probes(&mut p);
    bursty_round_ratio(&mut p, seed);
    packet_probes(&mut p);
    dcqcn_probe(&mut p);
    topology_probes(&mut p, seed);
    ltl_probes(&mut p, seed);
    er_probe(&mut p, seed);
    cluster_probes(&mut p, seed);
    apps_probes(&mut p, seed);
    elastic_probe(&mut p, seed);
    telemetry_probes(&mut p, seed);
    p.out
}

// --- dcsim.engine ---------------------------------------------------------

/// Pending event chains: the steady-state queue depth of the probe.
const CHAINS: u64 = 1024;
/// Events each chain runs per batch.
const EVENTS_PER_CHAIN: u64 = 200;

#[derive(Clone, Copy)]
enum Delays {
    /// 0.1-1.1 us: the network substrate's profile.
    Short,
    /// 90 % short, 9 % 10-100 us, 1 % 1-10 ms: a full service experiment,
    /// reaching the calendar queue's far tier.
    Mixed,
}

/// A self-rescheduling no-op chain; the message is the events left.
struct Chain {
    rng: SimRng,
    delays: Delays,
}

impl Component<u64> for Chain {
    fn on_message(&mut self, left: u64, ctx: &mut Context<'_, u64>) {
        if left == 0 {
            return;
        }
        let r = self.rng.next_u64();
        let ns = match self.delays {
            Delays::Short => 100 + r % 1_000,
            Delays::Mixed => match r % 100 {
                0 => 1_000_000 + (r >> 8) % 9_000_000,
                1..=9 => 10_000 + (r >> 8) % 90_000,
                _ => 100 + (r >> 8) % 1_000,
            },
        };
        ctx.send_to_self_after(SimDuration::from_nanos(ns), left - 1);
    }
}

fn chain_engine(delays: Delays) -> Engine<u64> {
    let mut e: Engine<u64> = Engine::new(7);
    for i in 0..CHAINS {
        let id = e.add_component(Chain {
            rng: SimRng::seed_from(0xC0FFEE ^ i),
            delays,
        });
        e.schedule(SimTime::from_nanos(i), id, EVENTS_PER_CHAIN);
    }
    e
}

fn engine_probes(p: &mut Prober<'_>) {
    for (name, delays) in [
        ("dcsim.engine.probe_short_ns_per_event", Delays::Short),
        ("dcsim.engine.probe_mixed_ns_per_event", Delays::Mixed),
    ] {
        p.probe(name, || {
            let mut e = chain_engine(delays);
            let start = Instant::now();
            let events = e.run_to_idle();
            (events, start.elapsed())
        });
    }
    // Steady-state allocations per event: the first tenth of the run
    // warms pools and bucket vectors, the rest is counted. Exact.
    let mut e = chain_engine(Delays::Short);
    e.run_until(SimTime::from_nanos(EVENTS_PER_CHAIN * 600 / 10));
    let before = alloc::acquisitions();
    let events = e.run_to_idle();
    let allocs = alloc::acquisitions() - before;
    p.out.metrics.push((
        "dcsim.engine.probe_allocs_per_event",
        allocs as f64 / events.max(1) as f64,
    ));
}

// --- dcsim.sharded --------------------------------------------------------

/// One stage of a modelled RPC service pipeline.
struct ServiceTick;

/// Paced RPC handler (perf's bursty shape): each delivery starts a
/// pipeline of self-ticks, and the reply leaves `delay` after it drains —
/// the declared pacing floor adaptive windows stretch across.
struct PacedWorker {
    shell: ComponentId,
    conn: shell::ltl::SendConnId,
    payload: Bytes,
    remaining: u64,
    delay: SimDuration,
    left: u32,
}

const PACED_STEPS: u32 = 32;
const PACED_TICK: SimDuration = SimDuration::from_nanos(100);

impl Component<Msg> for PacedWorker {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let msg = match msg.downcast::<LtlDeliver>() {
            Ok(_) => {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    self.left = PACED_STEPS;
                    ctx.send_to_self_after(PACED_TICK, Msg::custom(ServiceTick));
                }
                return;
            }
            Err(other) => other,
        };
        if msg.downcast::<ServiceTick>().is_ok() {
            if self.left > 0 {
                self.left -= 1;
                ctx.send_to_self_after(PACED_TICK, Msg::custom(ServiceTick));
            } else {
                let send = ShellCmd::LtlSend {
                    conn: self.conn,
                    vc: 0,
                    payload: self.payload.clone(),
                };
                ctx.send_after(self.delay, self.shell, Msg::custom(send));
            }
        }
    }
}

/// Barrier rounds and fingerprint of the paced-RPC shape on 4 shards
/// under `policy`. Round counts do not depend on the worker count, so the
/// figure is the same on any machine.
fn bursty_run(seed: u64, policy: WindowPolicy) -> (u64, u64) {
    let mut cluster = ClusterBuilder::paper(seed, 2).build();
    let delay = SimDuration::from_micros(2);
    let pairs = [
        (NodeAddr::new(0, 0, 1), NodeAddr::new(0, 6, 2)),
        (NodeAddr::new(0, 3, 3), NodeAddr::new(1, 4, 4)),
        (NodeAddr::new(1, 1, 5), NodeAddr::new(1, 9, 6)),
        (NodeAddr::new(1, 7, 7), NodeAddr::new(0, 9, 8)),
    ];
    let payload = Bytes::from(vec![0x5Au8; 512]);
    for (k, &(a, b)) in pairs.iter().enumerate() {
        let a_shell = cluster.add_shell(a);
        let b_shell = cluster.add_shell(b);
        let (a_send, b_send, _, _) = cluster.connect_pair(a, b);
        for (addr, shell, conn) in [(a, a_shell, a_send), (b, b_shell, b_send)] {
            let worker = PacedWorker {
                shell,
                conn,
                payload: payload.clone(),
                remaining: 150,
                delay,
                left: 0,
            };
            let id = cluster.add_paced_component_at(addr, worker, delay);
            cluster.set_consumer(addr, id);
        }
        let kick = ShellCmd::LtlSend {
            conn: a_send,
            vc: 0,
            payload: payload.clone(),
        };
        cluster.engine_mut().schedule(
            SimTime::from_nanos(137 * (1 + k as u64)),
            a_shell,
            Msg::custom(kick),
        );
    }
    cluster.shard(4);
    cluster.set_window_policy(policy);
    cluster.run_to_idle();
    (
        cluster.sync_rounds(),
        fingerprint(&cluster.metrics_snapshot().to_json()),
    )
}

/// Fixed-window rounds over adaptive-window rounds on the bursty shape:
/// an exact count ratio, not a time.
fn bursty_round_ratio(p: &mut Prober<'_>, seed: u64) {
    let ((fixed, adaptive), _) = p
        .rec
        .span("probe:dcsim.sharded.probe_bursty_round_ratio", |_| {
            (
                bursty_run(seed, WindowPolicy::fixed()),
                bursty_run(seed, WindowPolicy::adaptive()),
            )
        });
    if fixed.1 != adaptive.1 {
        p.out
            .violations
            .push("bursty probe: fixed and adaptive window fingerprints differ".into());
    }
    p.out.metrics.push((
        "dcsim.sharded.probe_bursty_round_ratio",
        fixed.0 as f64 / adaptive.0.max(1) as f64,
    ));
}

// --- dcnet ----------------------------------------------------------------

fn mtu_packet() -> Packet {
    Packet::new(
        NodeAddr::new(0, 1, 2),
        NodeAddr::new(1, 3, 4),
        LTL_UDP_PORT,
        LTL_UDP_PORT,
        TrafficClass::LTL,
        Bytes::from(vec![0xA5u8; dcnet::MTU_PAYLOAD]),
    )
}

fn packet_probes(p: &mut Prober<'_>) {
    const N: u64 = 20_000;
    let pkt = mtu_packet();
    p.probe("dcnet.packet.probe_encode_ns", || {
        timed(N, || {
            for _ in 0..N {
                black_box(black_box(&pkt).encode_wire());
            }
        })
    });
    let wire = pkt.encode_wire();
    p.probe("dcnet.packet.probe_decode_ns", || {
        timed(N, || {
            for _ in 0..N {
                black_box(Packet::decode_wire(black_box(&wire)).expect("round trip"));
            }
        })
    });
}

/// One reaction-point update cycle: a CNP every 64th step, MTU-sized
/// sends and a clock advance on every step.
fn dcqcn_probe(p: &mut Prober<'_>) {
    const N: u64 = 50_000;
    p.probe("dcnet.dcqcn.probe_update_ns", || {
        let mut rp = DcqcnRp::new(DcqcnConfig::default());
        timed(N, || {
            for i in 0..N {
                let now = SimTime::from_nanos(i * 300);
                if i % 64 == 0 {
                    rp.on_cnp(now);
                }
                rp.on_bytes_sent(1_500);
                black_box(rp.advance(now));
            }
        })
    });
}

fn topology_probes(p: &mut Prober<'_>, seed: u64) {
    p.probe("dcnet.topology.probe_build_lazy_ns", || {
        timed(1, || {
            let cfg = calib::fabric_config(calib::paper_shape(260));
            let mut engine = Engine::new(seed);
            black_box(
                FabricBuilder::from_config(&cfg)
                    .fidelity(FidelityMap::packet_island(260, 2))
                    .lazy(true)
                    .build(&mut engine),
            );
        })
    });
    p.probe("dcnet.topology.probe_build_eager_ns", || {
        timed(1, || {
            let cfg = calib::fabric_config(calib::paper_shape(2));
            let mut engine = Engine::new(seed);
            black_box(FabricBuilder::from_config(&cfg).build(&mut engine));
        })
    });
}

// --- shell.ltl ------------------------------------------------------------

/// Messages per LTL probe batch, 16 KiB each (12 MTU frames).
const LTL_MSGS: usize = 64;
const LTL_MSG_BYTES: usize = 16 * 1024;
/// LTL retries before a probe connection gives up (default 8). Every loss
/// makes go-back-N re-send its window and charges a retry to each frame
/// in it; at 2 % loss over 768 frames the default budget fails the
/// connection on one seed in four, in either mode.
const LTL_PROBE_RETRIES: u32 = 64;

/// Two LTL engines wired back to back through the sans-IO API: A sends
/// `LTL_MSGS` messages to B, frames from A are dropped with probability
/// `loss`. Returns first-transmission data frames per delivered run, or
/// `None` if the exchange did not complete.
fn ltl_exchange(mode: LtlMode, loss: f64, seed: u64) -> Option<u64> {
    let cfg = LtlConfig::default()
        .without_dcqcn()
        .with_mode(mode)
        .with_max_retries(LTL_PROBE_RETRIES);
    let (a_addr, b_addr) = (NodeAddr::new(0, 0, 0), NodeAddr::new(0, 1, 0));
    let mut a = LtlEngine::new(a_addr, cfg.clone());
    let mut b = LtlEngine::new(b_addr, cfg);
    let recv = b.add_recv(a_addr);
    let send = a.add_send(b_addr, recv);
    let payload = Bytes::from(vec![0x3Cu8; LTL_MSG_BYTES]);
    for _ in 0..LTL_MSGS {
        a.send_message(send, 0, payload.clone()).ok()?;
    }
    let mut rng = SimRng::seed_from(seed ^ 0x17A1_0550);
    let mut now = SimTime::ZERO;
    let mut delivered = 0;
    // Far more steps than a healthy exchange needs; a stuck protocol
    // fails the probe instead of hanging the benchmark.
    for _ in 0..2_000_000 {
        let mut moved = false;
        while let Poll::Ready(pkt) = a.poll(now) {
            moved = true;
            if loss > 0.0 && rng.chance(loss) {
                continue;
            }
            for ev in b.on_packet(&pkt, now) {
                if matches!(ev, LtlEvent::Deliver { .. }) {
                    delivered += 1;
                }
            }
        }
        while let Poll::Ready(pkt) = b.poll(now) {
            moved = true;
            a.on_packet(&pkt, now);
        }
        if delivered == LTL_MSGS && a.in_flight() == 0 {
            return Some(a.stats_view().data_sent);
        }
        if moved {
            now += SimDuration::from_nanos(300);
        } else {
            now += SimDuration::from_micros(10);
            a.on_tick(now);
            b.on_tick(now);
        }
    }
    None
}

fn ltl_probes(p: &mut Prober<'_>, seed: u64) {
    for (name, mode, loss) in [
        ("shell.ltl.probe_gbn_ns_per_frame", LtlMode::GoBackN, 0.0),
        (
            "shell.ltl.probe_sr_ns_per_frame",
            LtlMode::SelectiveRepeat,
            0.0,
        ),
        (
            "shell.ltl.probe_gbn_lossy_ns_per_frame",
            LtlMode::GoBackN,
            0.02,
        ),
        (
            "shell.ltl.probe_sr_lossy_ns_per_frame",
            LtlMode::SelectiveRepeat,
            0.02,
        ),
    ] {
        let mut stuck = false;
        p.probe(name, || {
            let start = Instant::now();
            let frames = ltl_exchange(mode, loss, seed);
            stuck |= frames.is_none();
            (frames.unwrap_or(1), start.elapsed())
        });
        if stuck {
            p.out
                .violations
                .push(format!("{name}: the exchange never completed"));
        }
    }

    const N: u64 = 20_000;
    let frame = LtlFrame {
        kind: FrameKind::Data,
        src_conn: 3,
        dst_conn: 5,
        seq: 77,
        msg_id: 9,
        last_frag: true,
        vc: 1,
        payload: Bytes::from(vec![0x5Au8; LtlConfig::default().mtu_payload]),
    };
    p.probe("shell.ltl.probe_frame_encode_ns", || {
        timed(N, || {
            for _ in 0..N {
                black_box(black_box(&frame).encode());
            }
        })
    });
    let wire = frame.encode();
    p.probe("shell.ltl.probe_frame_decode_ns", || {
        timed(N, || {
            for _ in 0..N {
                black_box(LtlFrame::decode(black_box(&wire)).expect("round trip"));
            }
        })
    });
}

// --- shell.er -------------------------------------------------------------

/// Seeded uniform traffic through a default 4-port router: every cycle
/// each input tries to inject one flit, then the crossbar steps. The
/// counters of one batch are exact for a seed.
fn er_probe(p: &mut Prober<'_>, seed: u64) {
    const CYCLES: u64 = 20_000;
    let mut counts = (0, 0);
    p.probe("shell.er.probe_ns_per_flit", || {
        let cfg = ErConfig::default();
        let mut router = ElasticRouter::new(cfg.clone());
        let mut rng = SimRng::seed_from(seed ^ 0xE1A5);
        let start = Instant::now();
        for cycle in 0..CYCLES {
            for port in 0..cfg.ports {
                let flit = Flit {
                    out_port: rng.index(cfg.ports),
                    vc: rng.index(cfg.vcs),
                    tail: true,
                    msg_id: cycle,
                    flit_seq: 0,
                };
                // A refusal is the credit stall the probe counts.
                let _ = router.inject(port, flit);
            }
            black_box(router.step(|_, _| true));
        }
        let took = start.elapsed();
        let stats = router.stats_view();
        counts = (stats.flits_routed, stats.credit_stalls);
        (stats.flits_routed, took)
    });
    p.out
        .metrics
        .push(("shell.er.probe_flits_routed", counts.0 as f64));
    p.out
        .metrics
        .push(("shell.er.probe_credit_stalls", counts.1 as f64));
}

// --- core.cluster ---------------------------------------------------------

fn cluster_probes(p: &mut Prober<'_>, seed: u64) {
    const PAIRS: u64 = 200;
    let slots = || {
        (0..PAIRS as u16).map(|i| {
            (
                NodeAddr::new(0, i % 40, i / 40),
                NodeAddr::new(0, (i + 7) % 40, 10 + i / 40),
            )
        })
    };
    p.probe("core.cluster.probe_add_shell_ns", || {
        let mut cluster = ClusterBuilder::paper(seed, 1).build();
        timed(2 * PAIRS, || {
            for (a, b) in slots() {
                cluster.add_shell(a);
                cluster.add_shell(b);
            }
        })
    });
    p.probe("core.cluster.probe_connect_pair_ns", || {
        let mut cluster = ClusterBuilder::paper(seed, 1).build();
        for (a, b) in slots() {
            cluster.add_shell(a);
            cluster.add_shell(b);
        }
        timed(PAIRS, || {
            for (a, b) in slots() {
                black_box(cluster.connect_pair(a, b));
            }
        })
    });
}

// --- apps -----------------------------------------------------------------

/// NIST SP 800-38D test case 2: AES-128-GCM of one zero block under the
/// zero key and IV.
fn gcm_known_answer() -> bool {
    let gcm = AesGcm::new_128(&[0u8; 16]);
    let mut data = [0u8; 16];
    let tag = gcm.seal(&[0u8; 12], &[], &mut data);
    data == [
        0x03, 0x88, 0xda, 0xce, 0x60, 0xb6, 0xa3, 0x92, 0xf3, 0x28, 0xc2, 0xb9, 0x71, 0xb2, 0xfe,
        0x78,
    ] && tag
        == [
            0xab, 0x6e, 0x47, 0xd4, 0x2c, 0xec, 0x13, 0xbd, 0xf5, 0x3a, 0x67, 0xb2, 0x12, 0x57,
            0xbd, 0xdf,
        ]
}

/// The MLP ends in a softmax: whatever the weights, the output is a
/// probability distribution, and inference is a pure function.
fn mlp_known_answer(mlp: &Mlp, input: &[f32]) -> bool {
    let out = mlp.infer(input);
    let sum: f32 = out.iter().sum();
    out.len() == mlp.output_width()
        && (sum - 1.0).abs() < 1e-4
        && out.iter().all(|&v| v >= 0.0)
        && out == mlp.infer(input)
}

fn apps_probes(p: &mut Prober<'_>, seed: u64) {
    let mlp = Mlp::new(&[128, 256, 256, 10], seed);
    let input: Vec<f32> = (0..128).map(|i| (i % 7) as f32 / 7.0).collect();
    if !mlp_known_answer(&mlp, &input) {
        p.out
            .violations
            .push("apps.dnn: MLP output is not a stable probability distribution".into());
    }
    p.probe("apps.dnn.probe_infer_ns", || {
        const N: u64 = 200;
        timed(N, || {
            for _ in 0..N {
                black_box(mlp.infer(black_box(&input)));
            }
        })
    });

    let corpus = CorpusGen::new(10_000, 1.0);
    let mut rng = SimRng::seed_from(seed ^ 0xD0C5);
    let query = corpus.query(&mut rng, 4);
    let docs: Vec<_> = (0..200)
        .map(|_| corpus.document(&mut rng, &query, 400, 0.6))
        .collect();
    p.probe("apps.ranking.probe_ffu_ns_per_doc", || {
        let mut bank = FfuBank::for_query(&query);
        timed(docs.len() as u64, || {
            for d in &docs {
                black_box(bank.compute(d));
            }
        })
    });
    p.probe("apps.ranking.probe_dpf_ns_per_doc", || {
        timed(docs.len() as u64, || {
            for d in &docs {
                black_box(dpf_features(&query, d));
            }
        })
    });

    if !gcm_known_answer() {
        p.out
            .violations
            .push("apps.crypto: AES-GCM fails NIST test case 2".into());
    }
    // Throughput over MTU-sized packets; ns per byte converts to MB/s.
    const PACKETS: u64 = 100;
    const PACKET_BYTES: usize = 1_500;
    let mb_per_s = |ns_per_byte: f64| 1_000.0 / ns_per_byte;
    let gcm = AesGcm::new_128(b"0123456789abcdef");
    let v = p.ns_per_unit("apps.crypto.probe_gcm_mb_per_s", || {
        let mut data = vec![0x42u8; PACKET_BYTES];
        timed(PACKETS * PACKET_BYTES as u64, || {
            for i in 0..PACKETS {
                let mut iv = [0u8; 12];
                iv[..8].copy_from_slice(&i.to_be_bytes());
                black_box(gcm.seal(&iv, b"hdr", &mut data));
            }
        })
    });
    p.out
        .metrics
        .push(("apps.crypto.probe_gcm_mb_per_s", mb_per_s(v)));
    let aes = Aes::new_128(b"0123456789abcdef");
    let v = p.ns_per_unit("apps.crypto.probe_cbc_sha1_mb_per_s", || {
        let data = vec![0x42u8; PACKET_BYTES];
        timed(PACKETS * PACKET_BYTES as u64, || {
            for _ in 0..PACKETS {
                black_box(cbc_sha1_seal(&aes, b"mac-key", &[7u8; 16], &data));
            }
        })
    });
    p.out
        .metrics
        .push(("apps.crypto.probe_cbc_sha1_mb_per_s", mb_per_s(v)));
}

// --- haas.elastic ---------------------------------------------------------

/// The `haas_elastic` trace shape on a quarter of the boards: with the
/// workload's own 96-board figure it exposes the scheduler's scaling
/// exponent.
fn elastic_probe(p: &mut Prober<'_>, seed: u64) {
    const BOARDS: u16 = 24;
    let horizon = SimDuration::from_secs(240);
    let trace = generate_trace(&haas_elastic::trace_config(seed, BOARDS, horizon));
    let regions = standard_region_alms();
    p.probe("haas.elastic.probe_ns_per_event_24boards", || {
        timed(trace.len() as u64, || {
            black_box(run_trace(
                BOARDS,
                &regions,
                ElasticConfig::default(),
                &trace,
                horizon,
            ));
        })
    });
}

// --- telemetry ------------------------------------------------------------

fn telemetry_probes(p: &mut Prober<'_>, seed: u64) {
    // The registry walk, on the cluster `ltl_volley` builds (48 shells,
    // 86 switches), before it runs.
    let cluster = crate::workloads::ltl_volley::build_cluster(seed).0;
    p.probe("telemetry.registry.probe_snapshot_ns", || {
        timed(1, || {
            black_box(cluster.metrics_snapshot());
        })
    });
    let snap = cluster.metrics_snapshot();
    p.probe("telemetry.registry.probe_json_ns", || {
        timed(1, || {
            black_box(snap.to_json());
        })
    });

    const N: u64 = 50_000;
    p.probe("telemetry.histogram.probe_record_ns", || {
        let mut h = Histogram::with_bucket_width(250);
        timed(N, || {
            for i in 0..N {
                h.record(black_box(2_000 + i % 977));
            }
            black_box(h.count());
        })
    });
    p.probe("telemetry.trace.probe_record_ns", || {
        let tracer = Tracer::new(N as usize);
        let track = tracer.track("probe");
        timed(N, || {
            for i in 0..N {
                track.instant(SimTime::from_nanos(i), "probe", &[("i", i)]);
            }
            black_box(tracer.len());
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The driver chooses the seed: the lossy exchanges must complete on
    /// every one, not only on the seeds the baseline was taken with.
    #[test]
    fn ltl_exchange_completes_on_every_seed() {
        for mode in [LtlMode::GoBackN, LtlMode::SelectiveRepeat] {
            for loss in [0.0, 0.02] {
                for seed in (0..256).chain([u64::MAX, 1 << 32, 0xDEAD_BEEF_CAFE]) {
                    let frames = ltl_exchange(mode, loss, seed);
                    assert!(
                        frames.is_some_and(|f| f >= (LTL_MSGS * 12) as u64),
                        "{mode:?} at loss {loss} on seed {seed}: {frames:?}"
                    );
                }
            }
        }
    }
}
