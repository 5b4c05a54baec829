//! Deterministic fault injection for the acceleration fabric.
//!
//! The paper's reliability story (Sections II-B and VII) is exercised in
//! production by real failures: flaky optics, crashed TORs, SEU role
//! hangs, bad application images rolled back to the golden image over the
//! management port. This module turns those failure classes into a
//! *seeded, replayable schedule* — a [`FaultPlan`] — injected into the
//! simulated cluster, and measures the full health loop around them:
//! LTL retransmission and connection-failure detection, client failover
//! to pre-provisioned spares, and the [`haas::FailureMonitor`] draining
//! and re-mapping dead nodes.
//!
//! Determinism is the contract: the same seed yields a byte-identical
//! fault timeline and [`ChaosReport`] across runs and processes, so CI
//! can diff two independent executions as a regression gate (the
//! `chaos-smoke` lane). Nothing in the report depends on wall-clock time,
//! map iteration order or pointer values.
//!
//! # Examples
//!
//! ```
//! use catapult::chaos::{ChaosConfig, ChaosRig, Preset};
//!
//! let report = ChaosRig::build(ChaosConfig::quick(42, Preset::RackIsolation)).run();
//! assert_eq!(report.requests.lost, 0, "failover must not lose requests");
//! assert!(report.recovery.failovers >= 1);
//! ```

use dcnet::{Msg, NodeAddr, PortId, Switch, SwitchCmd, SwitchStats};
use dcsim::{ComponentId, SimDuration, SimRng, SimTime};
use fpga::{Image, SeuModel};
use serde::Serialize;
use shell::ltl::{LtlStats, SendConnId};
use shell::tenant::TenantId;
use shell::{Shell, ShellCmd, ShellConfig, ShellStats};
use telemetry::nearest_rank;

use apps::remote::{AcceleratorRole, IssueRequest, RemoteClient, StallFor};
use haas::{whole_board_pool, DeployImage, FailureMonitor, FpgaManager, ServiceManager};

use crate::{Cluster, ClusterBuilder};

/// One class of injectable fault, aimed at a concrete target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The cable between `node` and its TOR drops for `down` (flaky
    /// optic / loose cable): frames in both directions are lost.
    LinkFlap {
        /// The host whose TOR link flaps.
        node: NodeAddr,
        /// Outage duration.
        down: SimDuration,
    },
    /// The TOR of rack `(pod, tor)` crashes and reboots after `reboot`,
    /// isolating every host in the rack.
    TorCrash {
        /// Pod of the crashed TOR.
        pod: u16,
        /// TOR index within the pod.
        tor: u16,
        /// Time until the switch forwards again.
        reboot: SimDuration,
    },
    /// The TOR's transmitter toward `node` corrupts the FCS of the next
    /// `frames` frames; the shell discards them on receipt.
    CorruptBurst {
        /// The host on the flaky downlink.
        node: NodeAddr,
        /// Number of corrupted frames.
        frames: u32,
    },
    /// An SEU wedges the role on `node` for `duration`: the shell keeps
    /// bridging and ACKing, but deliveries to the role are lost until the
    /// scrubber recovers it.
    FpgaHang {
        /// The FPGA whose role hangs.
        node: NodeAddr,
        /// Time until the scrubber restores the role.
        duration: SimDuration,
    },
    /// The client host at `node` freezes for `duration` (GC pause, VM
    /// freeze); requests due during the stall bunch up at its end.
    HostStall {
        /// The stalled client host.
        node: NodeAddr,
        /// Stall duration.
        duration: SimDuration,
    },
    /// A defective application image is deployed to `node`: the load
    /// takes the node off the network and the image never brings the
    /// bridge back, so recovery requires the Failure Monitor's
    /// golden-image power cycle over the management port.
    BadImage {
        /// The node receiving the bad image.
        node: NodeAddr,
    },
    /// `node`'s LTL egress drops frames i.i.d. at `rate_ppm` parts per
    /// million for `duration` (marginal optic, oversubscribed
    /// inter-rack hop): the node stays up, the transport must absorb the
    /// loss via retransmission. The A/B workhorse for comparing go-back-N
    /// against selective repeat.
    LossyLink {
        /// The node whose LTL transmissions become lossy.
        node: NodeAddr,
        /// Drop probability in parts per million (20_000 = 2 %).
        rate_ppm: u32,
        /// How long the loss window lasts.
        duration: SimDuration,
    },
}

impl FaultKind {
    /// The accelerator-plane node this fault can take down, if any
    /// (used to attribute detection reports to faults).
    fn downed_node(&self) -> Option<NodeAddr> {
        match *self {
            FaultKind::LinkFlap { node, .. }
            | FaultKind::FpgaHang { node, .. }
            | FaultKind::BadImage { node } => Some(node),
            _ => None,
        }
    }

    /// The rack this fault isolates, if any.
    fn downed_rack(&self) -> Option<(u16, u16)> {
        match *self {
            FaultKind::TorCrash { pod, tor, .. } => Some((pod, tor)),
            _ => None,
        }
    }

    fn label(&self) -> String {
        match *self {
            FaultKind::LinkFlap { node, down } => {
                format!("link_flap node={node} down_us={}", down.as_nanos() / 1_000)
            }
            FaultKind::TorCrash { pod, tor, reboot } => format!(
                "tor_crash rack={pod}.{tor} reboot_us={}",
                reboot.as_nanos() / 1_000
            ),
            FaultKind::CorruptBurst { node, frames } => {
                format!("corrupt_burst node={node} frames={frames}")
            }
            FaultKind::FpgaHang { node, duration } => format!(
                "fpga_hang node={node} dur_us={}",
                duration.as_nanos() / 1_000
            ),
            FaultKind::HostStall { node, duration } => format!(
                "host_stall node={node} dur_us={}",
                duration.as_nanos() / 1_000
            ),
            FaultKind::BadImage { node } => format!("bad_image node={node}"),
            FaultKind::LossyLink {
                node,
                rate_ppm,
                duration,
            } => format!(
                "lossy_link node={node} rate_ppm={rate_ppm} dur_us={}",
                duration.as_nanos() / 1_000
            ),
        }
    }
}

/// A fault scheduled at a simulation instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Injection time.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Nodes and racks a [`FaultPlan`] may aim at.
#[derive(Debug, Clone, Default)]
pub struct ChaosTargets {
    /// Accelerator-plane FPGAs (link flaps, corruption, hangs, images).
    pub accelerators: Vec<NodeAddr>,
    /// Client hosts (stalls).
    pub clients: Vec<NodeAddr>,
    /// Racks whose TOR may crash, as `(pod, tor)`.
    pub racks: Vec<(u16, u16)>,
}

/// Expected fault mix over one run. Counts are Poisson means — the
/// actual number drawn depends only on the seed.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Injection window: faults land in `[0.05, 0.80] * horizon` so the
    /// tail of the run observes recovery.
    pub horizon: SimDuration,
    /// Expected link flaps.
    pub link_flaps: f64,
    /// Outage length of each flap.
    pub flap_down: SimDuration,
    /// Expected TOR crashes.
    pub tor_crashes: f64,
    /// Reboot time of a crashed TOR.
    pub tor_reboot: SimDuration,
    /// Expected corruption bursts.
    pub corrupt_bursts: f64,
    /// Frames corrupted per burst.
    pub burst_frames: u32,
    /// SEU environment driving role hangs.
    pub seu: SeuModel,
    /// Machine-days of SEU soak compressed into the horizon (per
    /// accelerator); role hangs are sampled from [`SeuModel`] statistics.
    pub seu_soak_days: f64,
    /// How long a hung role stays wedged (scrub interval at the
    /// compressed timescale).
    pub hang_duration: SimDuration,
    /// Expected client host stalls.
    pub host_stalls: f64,
    /// Length of each stall.
    pub stall_duration: SimDuration,
    /// Expected bad-image deployments.
    pub bad_images: f64,
    /// Expected lossy-link windows.
    pub lossy_links: f64,
    /// Drop probability inside a lossy window, parts per million.
    pub lossy_rate_ppm: u32,
    /// Length of each lossy window.
    pub lossy_duration: SimDuration,
}

impl FaultConfig {
    /// The default mix at `rate = 1.0`, scaled linearly by `rate`.
    pub fn with_rate(horizon: SimDuration, rate: f64) -> FaultConfig {
        FaultConfig {
            horizon,
            link_flaps: 2.0 * rate,
            flap_down: SimDuration::from_millis(2),
            tor_crashes: 0.7 * rate,
            tor_reboot: SimDuration::from_millis(25),
            corrupt_bursts: 3.0 * rate,
            burst_frames: 4,
            seu: SeuModel::default(),
            // ~1.9 expected hangs per run at rate 1 with 12 accelerators.
            seu_soak_days: 20_000.0 * rate,
            hang_duration: SimDuration::from_millis(4),
            host_stalls: 1.5 * rate,
            stall_duration: SimDuration::from_millis(3),
            bad_images: 0.5 * rate,
            lossy_links: 1.0 * rate,
            lossy_rate_ppm: 20_000,
            lossy_duration: SimDuration::from_millis(3),
        }
    }
}

/// Sample a Poisson count via exponential gaps (means here are tiny).
///
/// Panics unless `lambda` is finite and non-negative: an infinite mean
/// would never stop drawing, and NaN or a negative one would quietly
/// plan nothing.
fn poisson(rng: &mut SimRng, lambda: f64) -> u64 {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "poisson mean must be finite and non-negative, got {lambda}"
    );
    let mut n = 0u64;
    let mut acc = rng.exp(1.0);
    while acc < lambda {
        n += 1;
        acc += rng.exp(1.0);
    }
    n
}

/// A seeded, fully materialised fault schedule.
///
/// Generation draws every fault class from its own forked RNG stream, so
/// adding events of one class never perturbs another class's draws — the
/// property that makes scenario presets and rate sweeps comparable
/// across seeds.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Events sorted by injection time (ties broken by draw order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generates the schedule for `seed` over `cfg.horizon`.
    pub fn generate(seed: u64, targets: &ChaosTargets, cfg: &FaultConfig) -> FaultPlan {
        let mut root = SimRng::seed_from(seed ^ 0xC4A0_5FAB);
        // Fork order is part of the format: one stream per fault class.
        let mut flap_rng = root.fork();
        let mut crash_rng = root.fork();
        let mut corrupt_rng = root.fork();
        let mut hang_rng = root.fork();
        let mut stall_rng = root.fork();
        let mut image_rng = root.fork();
        // Appended after the original six streams so older plans keep
        // their exact draws.
        let mut lossy_rng = root.fork();

        let span = cfg.horizon.as_nanos() as f64;
        let at =
            |rng: &mut SimRng| SimTime::from_nanos((span * (0.05 + 0.75 * rng.uniform())) as u64);

        let mut events: Vec<FaultEvent> = Vec::new();
        if !targets.accelerators.is_empty() {
            for _ in 0..poisson(&mut flap_rng, cfg.link_flaps) {
                let node = targets.accelerators[flap_rng.index(targets.accelerators.len())];
                events.push(FaultEvent {
                    at: at(&mut flap_rng),
                    kind: FaultKind::LinkFlap {
                        node,
                        down: cfg.flap_down,
                    },
                });
            }
            for _ in 0..poisson(&mut corrupt_rng, cfg.corrupt_bursts) {
                let node = targets.accelerators[corrupt_rng.index(targets.accelerators.len())];
                events.push(FaultEvent {
                    at: at(&mut corrupt_rng),
                    kind: FaultKind::CorruptBurst {
                        node,
                        frames: cfg.burst_frames,
                    },
                });
            }
            if cfg.seu_soak_days > 0.0 {
                let machines = targets.accelerators.len() as u64;
                let window = SimDuration::from_nanos((span * 0.75) as u64);
                for (machine, off) in
                    cfg.seu
                        .sample_hang_times(&mut hang_rng, machines, cfg.seu_soak_days, window)
                {
                    events.push(FaultEvent {
                        at: SimTime::from_nanos((span * 0.05) as u64) + off,
                        kind: FaultKind::FpgaHang {
                            node: targets.accelerators[machine],
                            duration: cfg.hang_duration,
                        },
                    });
                }
            }
            for _ in 0..poisson(&mut image_rng, cfg.bad_images) {
                let node = targets.accelerators[image_rng.index(targets.accelerators.len())];
                events.push(FaultEvent {
                    at: at(&mut image_rng),
                    kind: FaultKind::BadImage { node },
                });
            }
            for _ in 0..poisson(&mut lossy_rng, cfg.lossy_links) {
                let node = targets.accelerators[lossy_rng.index(targets.accelerators.len())];
                events.push(FaultEvent {
                    at: at(&mut lossy_rng),
                    kind: FaultKind::LossyLink {
                        node,
                        rate_ppm: cfg.lossy_rate_ppm,
                        duration: cfg.lossy_duration,
                    },
                });
            }
        }
        if !targets.racks.is_empty() {
            for _ in 0..poisson(&mut crash_rng, cfg.tor_crashes) {
                let (pod, tor) = targets.racks[crash_rng.index(targets.racks.len())];
                events.push(FaultEvent {
                    at: at(&mut crash_rng),
                    kind: FaultKind::TorCrash {
                        pod,
                        tor,
                        reboot: cfg.tor_reboot,
                    },
                });
            }
        }
        if !targets.clients.is_empty() {
            for _ in 0..poisson(&mut stall_rng, cfg.host_stalls) {
                let node = targets.clients[stall_rng.index(targets.clients.len())];
                events.push(FaultEvent {
                    at: at(&mut stall_rng),
                    kind: FaultKind::HostStall {
                        node,
                        duration: cfg.stall_duration,
                    },
                });
            }
        }
        // Stable sort: draw order breaks same-instant ties deterministically.
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }
}

/// Scenario presets for the `chaos` bench binary and CI lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Seeded random mix of every fault class at the configured rate.
    Random,
    /// A TOR crash isolates the rack holding every ranking primary; the
    /// clients must fail over to spares with zero post-recovery loss.
    RackIsolation,
    /// A defective application image takes an accelerator down; recovery
    /// is the Failure Monitor's golden-image rollback.
    GoldenImage,
    /// A sustained i.i.d. loss window on a ranking primary's LTL egress;
    /// the transport must ride it out with retransmissions and zero
    /// request loss. The scenario behind the transport A/B lane.
    LossyLink,
}

impl Preset {
    /// The preset's name as it appears in reports and on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            Preset::Random => "random",
            Preset::RackIsolation => "rack-isolation",
            Preset::GoldenImage => "golden-image",
            Preset::LossyLink => "lossy-link",
        }
    }

    /// Parses a CLI preset name.
    pub fn parse(s: &str) -> Option<Preset> {
        match s {
            "random" => Some(Preset::Random),
            "rack-isolation" => Some(Preset::RackIsolation),
            "golden-image" => Some(Preset::GoldenImage),
            "lossy-link" => Some(Preset::LossyLink),
            _ => None,
        }
    }
}

/// Everything that parameterises one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// RNG seed: same seed, same report, byte for byte.
    pub seed: u64,
    /// Fault scenario.
    pub preset: Preset,
    /// Scales the random preset's expected fault counts.
    pub fault_rate: f64,
    /// Run length (faults land in the first 80%).
    pub horizon: SimDuration,
    /// Interval between requests per client.
    pub request_period: SimDuration,
    /// Ranking-service (client, primary, spare) triples.
    pub ranking_pairs: usize,
    /// DNN-pool (client, primary, spare) triples.
    pub dnn_pairs: usize,
    /// Application-level retry timeout per request.
    pub request_timeout: SimDuration,
    /// Attempts before a request is abandoned (counted lost).
    pub max_attempts: u32,
    /// Completions slower than this count as degraded.
    pub degraded_threshold: SimDuration,
    /// Width of the per-fault "during"/"after" latency windows.
    pub fault_window: SimDuration,
    /// Failed nodes return to the pool this long after detection.
    pub repair_after: Option<SimDuration>,
    /// Full-chip reconfiguration time (compressed from the paper's
    /// seconds so a bad-image load fits the run).
    pub full_reconfig: SimDuration,
}

impl ChaosConfig {
    /// Full-length run: ~400 ms simulated, the default fault mix.
    pub fn full(seed: u64, preset: Preset) -> ChaosConfig {
        ChaosConfig {
            seed,
            preset,
            fault_rate: 1.0,
            horizon: SimDuration::from_millis(400),
            request_period: SimDuration::from_micros(500),
            ranking_pairs: 4,
            dnn_pairs: 2,
            request_timeout: SimDuration::from_millis(1),
            max_attempts: 12,
            degraded_threshold: SimDuration::from_millis(1),
            fault_window: SimDuration::from_millis(10),
            repair_after: Some(SimDuration::from_millis(60)),
            full_reconfig: SimDuration::from_millis(40),
        }
    }

    /// CI smoke scale: an ~80 ms run, same workload shape.
    pub fn quick(seed: u64, preset: Preset) -> ChaosConfig {
        ChaosConfig {
            horizon: SimDuration::from_millis(80),
            ..ChaosConfig::full(seed, preset)
        }
    }

    /// Scales the random preset's expected fault counts. `rate` must be
    /// finite and non-negative: building the rig panics otherwise.
    pub fn with_fault_rate(mut self, rate: f64) -> ChaosConfig {
        self.fault_rate = rate;
        self
    }

    /// Sets the run length.
    pub fn with_horizon(mut self, horizon: SimDuration) -> ChaosConfig {
        self.horizon = horizon;
        self
    }

    /// Sets the number of ranking-service (client, primary, spare) triples.
    pub fn with_ranking_pairs(mut self, pairs: usize) -> ChaosConfig {
        self.ranking_pairs = pairs;
        self
    }

    /// Sets the number of DNN-pool (client, primary, spare) triples.
    pub fn with_dnn_pairs(mut self, pairs: usize) -> ChaosConfig {
        self.dnn_pairs = pairs;
        self
    }
}

impl Default for ChaosConfig {
    /// The full-length run at seed 0 with the random fault mix.
    fn default() -> ChaosConfig {
        ChaosConfig::full(0, Preset::Random)
    }
}

/// One workload triple: a client host plus its primary and spare
/// accelerators.
struct Triple {
    client_addr: NodeAddr,
    client_id: ComponentId,
    primary_role: ComponentId,
    spare_role: ComponentId,
}

/// The assembled cluster + workload + monitor + fault plan.
pub struct ChaosRig {
    cfg: ChaosConfig,
    cluster: Cluster,
    triples: Vec<Triple>,
    monitor_id: ComponentId,
    plan: FaultPlan,
    issued: u64,
}

impl ChaosRig {
    /// Builds the rig: a one-pod paper-calibrated cluster, a ranking
    /// service and a DNN pool (each client wired to a primary and a
    /// pre-provisioned spare), a [`FailureMonitor`] owning the HaaS
    /// bookkeeping, and the preset's fault plan, fully scheduled.
    ///
    /// # Panics
    ///
    /// Panics if `ranking_pairs + dnn_pairs` exceeds the 24 host slots of
    /// the one rack every client (and every spare) is seated in, or if
    /// `request_period` is zero.
    pub fn build(cfg: ChaosConfig) -> ChaosRig {
        assert!(
            cfg.request_period > SimDuration::ZERO,
            "ChaosConfig.request_period must be positive: a zero period issues \
             unboundedly many requests"
        );
        let shape = crate::calib::paper_shape(1);
        let shell_cfg = ShellConfig {
            full_reconfig: cfg.full_reconfig,
            ..crate::calib::shell_config()
        };
        let mut cluster = ClusterBuilder::new(cfg.seed)
            .fabric_config(&crate::calib::fabric_config(shape))
            .shell_config(shell_cfg)
            .build();

        // Placement: clients rack 0, ranking primaries rack 1, DNN
        // primaries rack 2, spares rack 3 — so one TOR crash isolates a
        // whole service's primaries and nothing else.
        let n = cfg.ranking_pairs + cfg.dnn_pairs;
        assert!(
            n <= shape.hosts_per_tor as usize,
            "ChaosRig seats every client in one {}-slot rack: {} ranking + {} dnn pairs do not fit",
            shape.hosts_per_tor,
            cfg.ranking_pairs,
            cfg.dnn_pairs
        );
        let mut layout: Vec<(NodeAddr, NodeAddr, NodeAddr, bool)> = Vec::new();
        for i in 0..cfg.ranking_pairs {
            let i = i as u16;
            layout.push((
                NodeAddr::new(0, 0, i),
                NodeAddr::new(0, 1, i),
                NodeAddr::new(0, 3, i),
                true,
            ));
        }
        for j in 0..cfg.dnn_pairs {
            let j16 = j as u16;
            layout.push((
                NodeAddr::new(0, 0, cfg.ranking_pairs as u16 + j16),
                NodeAddr::new(0, 2, j16),
                NodeAddr::new(0, 3, cfg.ranking_pairs as u16 + j16),
                false,
            ));
        }

        // HaaS pool: primaries registered first (so grow() leases them),
        // spares after (so replacements come from rack 3, in order).
        let (primaries, spares) = (layout.iter().map(|l| l.1), layout.iter().map(|l| l.2));
        let mut pool = whole_board_pool(primaries.chain(spares));
        let mut ranking_sm = ServiceManager::new("ranking", TenantId(0));
        let mut dnn_sm = ServiceManager::new("dnn-pool", TenantId(1));
        ranking_sm
            .grow(&mut pool, SimTime::ZERO, cfg.ranking_pairs)
            .expect("pool sized for the workload");
        dnn_sm
            .grow(&mut pool, SimTime::ZERO, cfg.dnn_pairs)
            .expect("pool sized for the workload");
        let mut monitor = FailureMonitor::new(pool, cfg.repair_after);
        monitor.add_service(ranking_sm);
        monitor.add_service(dnn_sm);
        for &(_, primary, spare, _) in &layout {
            monitor.add_fm(FpgaManager::new(primary));
            monitor.add_fm(FpgaManager::new(spare));
        }

        let mut triples = Vec::with_capacity(n);
        for (idx, &(client_addr, primary, spare, ranking)) in layout.iter().enumerate() {
            let client_shell = cluster.add_shell(client_addr);
            cluster.add_shell(primary);
            cluster.add_shell(spare);
            let (to_primary, p_send, _c_recv1, p_recv) = cluster.connect_pair(client_addr, primary);
            let (to_spare, s_send, _c_recv2, s_recv) = cluster.connect_pair(client_addr, spare);

            // Ranking FFU-style latency vs. a heavier DNN service time.
            let service = if ranking {
                SimDuration::from_micros(80)
            } else {
                SimDuration::from_micros(180)
            };
            let response = if ranking { 256 } else { 1024 };
            let mk_role = |cluster: &mut Cluster, addr: NodeAddr, recv, send: SendConnId| {
                let shell_id = cluster.shell_id(addr).expect("just populated");
                let mut role = AcceleratorRole::new(shell_id, service, 0.1, 4, response);
                role.add_reply_route(recv, send);
                let id = cluster.engine_mut().add_component(role);
                cluster.set_consumer(addr, id);
                id
            };
            let primary_role = mk_role(&mut cluster, primary, p_recv, p_send);
            let spare_role = mk_role(&mut cluster, spare, s_recv, s_send);

            let mut client = RemoteClient::new(client_shell, to_primary, 512, idx as u16 + 1);
            client.add_backup(to_spare);
            client.set_request_timeout(cfg.request_timeout, cfg.max_attempts);
            client.enable_completion_log();
            let client_id = cluster.engine_mut().add_component(client);
            cluster.set_consumer(client_addr, client_id);
            triples.push(Triple {
                client_addr,
                client_id,
                primary_role,
                spare_role,
            });
        }

        let monitor_id = cluster.engine_mut().add_component(monitor);
        for t in &triples {
            cluster
                .engine_mut()
                .component_mut::<RemoteClient>(t.client_id)
                .expect("client registered")
                .set_monitor(monitor_id);
        }

        // Request streams, staggered so clients do not fire in lockstep:
        // one every period from the offset up to the horizon, each stream
        // one queue node until its requests come due.
        let mut issued = 0u64;
        for (idx, t) in triples.iter().enumerate() {
            let start = SimDuration::from_micros(37 * idx as u64).as_nanos();
            let count = cfg
                .horizon
                .as_nanos()
                .saturating_sub(start)
                .div_ceil(cfg.request_period.as_nanos());
            cluster.engine_mut().schedule_series(
                SimTime::from_nanos(start),
                cfg.request_period,
                count,
                t.client_id,
                || Msg::custom(IssueRequest),
            );
            issued += count;
        }

        let targets = ChaosTargets {
            accelerators: layout
                .iter()
                .flat_map(|&(_, primary, spare, _)| [primary, spare])
                .collect(),
            clients: layout.iter().map(|&(client, _, _, _)| client).collect(),
            racks: vec![(0, 1), (0, 2)],
        };
        let plan = match cfg.preset {
            Preset::Random => FaultPlan::generate(
                cfg.seed,
                &targets,
                &FaultConfig::with_rate(cfg.horizon, cfg.fault_rate),
            ),
            Preset::RackIsolation => FaultPlan {
                // The ranking rack's TOR dies and stays down for half the
                // run; every primary is unreachable at once.
                events: vec![FaultEvent {
                    at: SimTime::from_nanos(cfg.horizon.as_nanos() / 8),
                    kind: FaultKind::TorCrash {
                        pod: 0,
                        tor: 1,
                        reboot: SimDuration::from_nanos(cfg.horizon.as_nanos() / 2),
                    },
                }],
            },
            Preset::GoldenImage => FaultPlan {
                events: vec![FaultEvent {
                    at: SimTime::from_nanos(cfg.horizon.as_nanos() / 8),
                    kind: FaultKind::BadImage {
                        node: layout[cfg.ranking_pairs].1,
                    },
                }],
            },
            Preset::LossyLink => FaultPlan {
                // A ranking primary's egress drops 5 % of frames for half
                // the run; the node never goes down, so every request must
                // be saved by the transport, not by failover.
                events: vec![FaultEvent {
                    at: SimTime::from_nanos(cfg.horizon.as_nanos() / 8),
                    kind: FaultKind::LossyLink {
                        node: layout[0].1,
                        rate_ppm: 50_000,
                        duration: SimDuration::from_nanos(cfg.horizon.as_nanos() / 2),
                    },
                }],
            },
        };

        let mut rig = ChaosRig {
            cfg,
            cluster,
            triples,
            monitor_id,
            plan,
            issued,
        };
        install_plan(&mut rig.cluster, rig.monitor_id, &rig.plan, |node| {
            let client = rig.triples.iter().find(|t| t.client_addr == node);
            Some(client.expect("stall targets a client").client_id)
        });
        rig
    }

    /// The materialised fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The cluster under test, so a harness can attach a
    /// [`dcsim::Observer`] to its engine before [`ChaosRig::run`], or run
    /// it itself and read the engine's counters before the report
    /// consumes the rig.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Runs the schedule to quiescence and assembles the recovery report.
    pub fn run(mut self) -> ChaosReport {
        self.cluster.run_to_idle();
        build_report(self)
    }
}

/// Schedules every fault in `plan` onto `cluster` as engine messages.
///
/// `monitor_id` is the [`FailureMonitor`] that learns of bad-image
/// deployments; `stall_target` names the component a
/// [`FaultKind::HostStall`] at a node is sent to (`None` skips the
/// stall — a cluster with no host software has nothing to stall).
///
/// # Panics
///
/// Panics if a shell-targeted fault names an unpopulated slot.
pub fn install_plan(
    cluster: &mut Cluster,
    monitor_id: ComponentId,
    plan: &FaultPlan,
    stall_target: impl Fn(NodeAddr) -> Option<ComponentId>,
) {
    for &FaultEvent { at, kind } in &plan.events {
        match kind {
            FaultKind::LinkFlap { node, down } => {
                let tor = cluster.fabric().tor_switch(node.pod, node.tor);
                let port = PortId(node.host);
                let e = cluster.engine_mut();
                e.schedule(
                    at,
                    tor,
                    Msg::Switch(SwitchCmd::SetLinkUp { port, up: false }),
                );
                e.schedule(
                    at + down,
                    tor,
                    Msg::Switch(SwitchCmd::SetLinkUp { port, up: true }),
                );
            }
            FaultKind::TorCrash { pod, tor, reboot } => {
                let id = cluster.fabric().tor_switch(pod, tor);
                cluster.engine_mut().schedule(
                    at,
                    id,
                    Msg::Switch(SwitchCmd::Crash {
                        reboot_after: reboot,
                    }),
                );
            }
            FaultKind::CorruptBurst { node, frames } => {
                let tor = cluster.fabric().tor_switch(node.pod, node.tor);
                cluster.engine_mut().schedule(
                    at,
                    tor,
                    Msg::Switch(SwitchCmd::CorruptNext {
                        port: PortId(node.host),
                        frames,
                    }),
                );
            }
            FaultKind::FpgaHang { node, duration } => {
                let shell = cluster.shell_id(node).expect("target populated");
                cluster.engine_mut().schedule(
                    at,
                    shell,
                    Msg::custom(ShellCmd::HangRole { duration }),
                );
            }
            FaultKind::HostStall { node, duration } => {
                if let Some(target) = stall_target(node) {
                    cluster
                        .engine_mut()
                        .schedule(at, target, Msg::custom(StallFor(duration)));
                }
            }
            FaultKind::LossyLink {
                node,
                rate_ppm,
                duration,
            } => {
                let shell = cluster.shell_id(node).expect("target populated");
                let e = cluster.engine_mut();
                e.schedule(
                    at,
                    shell,
                    Msg::custom(ShellCmd::SetLtlLossRate(rate_ppm as f64 / 1e6)),
                );
                e.schedule(
                    at + duration,
                    shell,
                    Msg::custom(ShellCmd::SetLtlLossRate(0.0)),
                );
            }
            FaultKind::BadImage { node } => {
                let shell = cluster.shell_id(node).expect("target populated");
                let mut bad = Image::application("chaos-bad", "role");
                bad.bridge = false;
                let e = cluster.engine_mut();
                // The load takes the node off the network; the bad
                // image never restores the bridge, which the
                // monitor's FM view reflects for the rollback.
                e.schedule(
                    at,
                    shell,
                    Msg::custom(ShellCmd::Reconfigure { partial: false }),
                );
                e.schedule(
                    at,
                    monitor_id,
                    Msg::custom(DeployImage {
                        addr: node,
                        image: bad,
                    }),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Latency percentiles over one set of completions (ns). `null` fields
/// mean the window saw no completions.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct LatencySummary {
    /// Completions in the window.
    pub count: u64,
    /// Median latency, ns.
    pub p50_ns: Option<u64>,
    /// 99th percentile, ns.
    pub p99_ns: Option<u64>,
    /// 99.9th percentile, ns.
    pub p999_ns: Option<u64>,
}

impl LatencySummary {
    fn from_sorted(lat: &[u64]) -> LatencySummary {
        let pick = |p: f64| nearest_rank(lat.len(), p).map(|i| lat[i]);
        LatencySummary {
            count: lat.len() as u64,
            p50_ns: pick(50.0),
            p99_ns: pick(99.0),
            p999_ns: pick(99.9),
        }
    }
}

/// One fault on the timeline with the latency windows around it.
#[derive(Debug, Clone, Serialize)]
pub struct FaultOutcome {
    /// Injection time, µs.
    pub at_us: u64,
    /// Human-readable fault description.
    pub fault: String,
    /// Completions inside `[at, at + window)`.
    pub during: LatencySummary,
    /// Completions inside `[at + window, at + 2*window)`.
    pub after: LatencySummary,
}

/// Request accounting over the whole run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RequestStats {
    /// Requests scheduled by the workload.
    pub issued: u64,
    /// Requests completed (exactly once each).
    pub completed: u64,
    /// Requests abandoned after all attempts — true losses.
    pub lost: u64,
    /// Completions slower than the degraded threshold.
    pub degraded: u64,
    /// Requests still outstanding at quiescence (should be zero).
    pub stranded: u64,
    /// Requests served by primary accelerators.
    pub served_by_primaries: u64,
    /// Requests served by spares (non-zero once clients fail over).
    pub served_by_spares: u64,
}

/// How failures were detected and attributed.
#[derive(Debug, Clone, Serialize)]
pub struct DetectionStats {
    /// Down-reports the monitor acted on.
    pub reports: u64,
    /// Redundant reports for already-drained nodes.
    pub duplicate_reports: u64,
    /// Fault-to-detection latencies (µs) for reports attributable to a
    /// scheduled fault, in detection order.
    pub latencies_us: Vec<u64>,
}

/// One handled failure from the monitor's log.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryEntry {
    /// The failed node.
    pub node: String,
    /// When the report reached the monitor, µs.
    pub detected_at_us: u64,
    /// Service whose lease was disrupted.
    pub service: Option<String>,
    /// Replacement endpoint, if the pool had one.
    pub replacement: Option<String>,
    /// Whether recovery needed the golden-image power cycle.
    pub power_cycled: bool,
}

/// Management-plane recovery actions.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryStats {
    /// Client failovers to a spare connection.
    pub failovers: u64,
    /// Timeout-driven request re-issues.
    pub client_retries: u64,
    /// Replacement endpoints granted by Service Managers.
    pub replacements: u64,
    /// Golden-image power cycles.
    pub power_cycles: u64,
    /// Nodes returned to the pool after repair.
    pub repairs: u64,
    /// The monitor's full recovery log.
    pub records: Vec<RecoveryEntry>,
}

/// Transport-layer effects of the faults (summed over all shells).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TransportStats {
    /// LTL data retransmissions.
    pub retransmits: u64,
    /// Retransmissions triggered by timeout.
    pub timeouts: u64,
    /// LTL connections declared failed.
    pub conn_failures: u64,
    /// Duplicate deliveries suppressed by LTL sequencing.
    pub duplicates: u64,
    /// Messages delivered to consumers.
    pub msgs_delivered: u64,
    /// Frames discarded for corrupted FCS.
    pub corrupt_drops: u64,
    /// Deliveries lost to hung roles.
    pub hang_drops: u64,
    /// Packets lost while a reconfiguration had the link down.
    pub reconfig_drops: u64,
    /// Frames deliberately dropped by lossy-link fault injection.
    pub injected_drops: u64,
}

/// Fabric-level effects (summed over every switch).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FabricStats {
    /// Frames lost to downed links.
    pub link_down_drops: u64,
    /// Frames lost to crashed switches.
    pub crash_drops: u64,
    /// Frames corrupted in flight.
    pub corrupted: u64,
    /// Switch crash/reboot cycles.
    pub crashes: u64,
    /// Congestion drops in lossy classes.
    pub congestion_drops: u64,
}

/// The deterministic recovery report: everything CI diffs between two
/// same-seed runs.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosReport {
    /// Seed the run was driven by.
    pub seed: u64,
    /// Scenario preset name.
    pub preset: String,
    /// Run length, µs.
    pub horizon_us: u64,
    /// Quiescence time, µs (faults can push recovery past the horizon).
    pub finished_at_us: u64,
    /// Request accounting.
    pub requests: RequestStats,
    /// Detection behaviour.
    pub detection: DetectionStats,
    /// Recovery actions.
    pub recovery: RecoveryStats,
    /// Transport effects.
    pub transport: TransportStats,
    /// Fabric effects.
    pub fabric: FabricStats,
    /// Whole-run latency summary.
    pub latency: LatencySummary,
    /// Per-fault timeline with during/after latency windows.
    pub timeline: Vec<FaultOutcome>,
}

fn build_report(rig: ChaosRig) -> ChaosReport {
    let ChaosRig {
        cfg,
        cluster,
        triples,
        monitor_id,
        plan,
        issued,
    } = rig;

    // Transport and fabric sections sum the typed counters of every shell
    // (its LTL engine included) and every switch: the same counters a
    // registry snapshot publishes, read in place instead of copied into
    // one.
    let shells: Vec<&Shell> = cluster
        .shells()
        .filter_map(|(_, id)| cluster.component::<Shell>(id))
        .collect();
    let shell_sum = |f: fn(&ShellStats) -> u64| shells.iter().map(|s| f(s.stats_view())).sum();
    let ltl_sum = |f: fn(&LtlStats) -> u64| shells.iter().map(|s| f(s.ltl().stats_view())).sum();
    let transport = TransportStats {
        retransmits: ltl_sum(|s| s.retransmits),
        timeouts: ltl_sum(|s| s.timeouts),
        conn_failures: ltl_sum(|s| s.conn_failures),
        duplicates: ltl_sum(|s| s.duplicates),
        msgs_delivered: ltl_sum(|s| s.msgs_delivered),
        corrupt_drops: shell_sum(|s| s.corrupt_drops),
        hang_drops: shell_sum(|s| s.hang_drops),
        reconfig_drops: shell_sum(|s| s.reconfig_drops),
        injected_drops: shell_sum(|s| s.injected_drops),
    };
    let switches: Vec<&Switch> = cluster
        .fabric()
        .switches()
        .filter_map(|(_, id)| cluster.component::<Switch>(id))
        .collect();
    let switch_sum = |f: fn(&SwitchStats) -> u64| switches.iter().map(|s| f(s.stats_view())).sum();
    let fabric = FabricStats {
        link_down_drops: switch_sum(|s| s.link_down_drops),
        crash_drops: switch_sum(|s| s.crash_drops),
        corrupted: switch_sum(|s| s.corrupted),
        crashes: switch_sum(|s| s.crashes),
        congestion_drops: switch_sum(|s| s.dropped),
    };

    // Client-side accounting, in triple order (never map order).
    let client = |t: &Triple| {
        cluster
            .engine()
            .component::<RemoteClient>(t.client_id)
            .expect("client registered")
    };
    let log = |t: &Triple| client(t).completion_log().expect("log enabled");
    let mut completed = 0u64;
    let mut lost = 0u64;
    let mut stranded = 0u64;
    let mut failovers = 0u64;
    let mut client_retries = 0u64;
    let mut served_by_primaries = 0u64;
    let mut served_by_spares = 0u64;
    for t in &triples {
        let c = client(t);
        let cs = c.stats();
        completed += cs.completed;
        lost += cs.abandoned;
        stranded += cs.outstanding;
        failovers += cs.failovers;
        client_retries += cs.retries;
        let served = |id| {
            cluster
                .engine()
                .component::<AcceleratorRole>(id)
                .expect("role registered")
                .completed()
        };
        served_by_primaries += served(t.primary_role);
        served_by_spares += served(t.spare_role);
    }

    // The summaries read the multiset of latencies, never a merged order,
    // so each client's log is read in place.
    let mut all_lat: Vec<u64> = triples
        .iter()
        .flat_map(|t| log(t).iter().map(|&(_, lat)| lat))
        .collect();
    all_lat.sort_unstable();
    let threshold = cfg.degraded_threshold.as_nanos();
    let degraded = (all_lat.len() - all_lat.partition_point(|&lat| lat <= threshold)) as u64;
    let latency = LatencySummary::from_sorted(&all_lat);
    drop(all_lat);

    // A log is in completion-time order, so a window is one slice of it.
    let window_summary = |from: SimTime, to: SimTime| -> LatencySummary {
        let mut lat: Vec<u64> = triples
            .iter()
            .flat_map(|t| {
                let log = log(t);
                let lo = log.partition_point(|&(at, _)| at < from);
                let hi = log.partition_point(|&(at, _)| at < to);
                log[lo..hi].iter().map(|&(_, lat)| lat)
            })
            .collect();
        lat.sort_unstable();
        LatencySummary::from_sorted(&lat)
    };
    let timeline: Vec<FaultOutcome> = plan
        .events
        .iter()
        .map(|ev| FaultOutcome {
            at_us: ev.at.as_nanos() / 1_000,
            fault: ev.kind.label(),
            during: window_summary(ev.at, ev.at + cfg.fault_window),
            after: window_summary(
                ev.at + cfg.fault_window,
                ev.at + cfg.fault_window + cfg.fault_window,
            ),
        })
        .collect();

    // Monitor-side accounting.
    let monitor = cluster
        .engine()
        .component::<FailureMonitor>(monitor_id)
        .expect("monitor registered");
    let mut detection_lat = Vec::new();
    let mut records = Vec::new();
    let mut replacements = 0u64;
    for rec in monitor.records() {
        // Attribute the report to the latest scheduled fault that could
        // have downed this node (directly or by isolating its rack).
        let cause = plan.events.iter().rev().find(|ev| {
            ev.at <= rec.detected_at
                && (ev.kind.downed_node() == Some(rec.addr)
                    || ev.kind.downed_rack() == Some((rec.addr.pod, rec.addr.tor)))
        });
        if let Some(ev) = cause {
            detection_lat.push(rec.detected_at.saturating_since(ev.at).as_nanos() / 1_000);
        }
        if rec.replacement.is_some() {
            replacements += 1;
        }
        records.push(RecoveryEntry {
            node: rec.addr.to_string(),
            detected_at_us: rec.detected_at.as_nanos() / 1_000,
            service: rec.service.clone(),
            replacement: rec.replacement.map(|a| a.to_string()),
            power_cycled: rec.power_cycled,
        });
    }
    let detection = DetectionStats {
        reports: monitor.records().len() as u64,
        duplicate_reports: monitor.duplicate_reports(),
        latencies_us: detection_lat,
    };
    let recovery = RecoveryStats {
        failovers,
        client_retries,
        replacements,
        power_cycles: monitor.power_cycles(),
        repairs: monitor.repairs(),
        records,
    };

    ChaosReport {
        seed: cfg.seed,
        preset: cfg.preset.name().to_string(),
        horizon_us: cfg.horizon.as_nanos() / 1_000,
        finished_at_us: cluster.now().as_nanos() / 1_000,
        requests: RequestStats {
            issued,
            completed,
            lost,
            degraded,
            stranded,
            served_by_primaries,
            served_by_spares,
        },
        detection,
        recovery,
        transport,
        fabric,
        latency,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p999_of_a_thousand_is_the_999th_not_the_maximum() {
        let lat: Vec<u64> = (1..=1_000).collect();
        let s = LatencySummary::from_sorted(&lat);
        assert_eq!(s.count, 1_000);
        assert_eq!(s.p50_ns, Some(500));
        assert_eq!(s.p99_ns, Some(990));
        assert_eq!(s.p999_ns, Some(999));
        assert_eq!(LatencySummary::from_sorted(&[]).p999_ns, None);
    }

    #[test]
    fn plan_generation_is_deterministic_per_seed() {
        let targets = ChaosTargets {
            accelerators: (0..8).map(|h| NodeAddr::new(0, 1, h)).collect(),
            clients: (0..4).map(|h| NodeAddr::new(0, 0, h)).collect(),
            racks: vec![(0, 1), (0, 2)],
        };
        let cfg = FaultConfig::with_rate(SimDuration::from_millis(100), 2.0);
        let a = FaultPlan::generate(7, &targets, &cfg);
        let b = FaultPlan::generate(7, &targets, &cfg);
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty(), "rate 2.0 should draw some faults");
        let c = FaultPlan::generate(8, &targets, &cfg);
        assert_ne!(a.events, c.events, "different seed, different plan");
        for w in a.events.windows(2) {
            assert!(w[0].at <= w[1].at, "events sorted by time");
        }
    }

    #[test]
    fn empty_target_classes_generate_no_events_for_them() {
        let targets = ChaosTargets::default();
        let cfg = FaultConfig::with_rate(SimDuration::from_millis(100), 10.0);
        let plan = FaultPlan::generate(3, &targets, &cfg);
        assert!(plan.events.is_empty());
    }

    #[test]
    #[should_panic(expected = "24-slot rack: 20 ranking + 5 dnn pairs do not fit")]
    fn build_rejects_more_pairs_than_one_rack_seats() {
        ChaosRig::build(
            ChaosConfig::quick(1, Preset::Random)
                .with_ranking_pairs(20)
                .with_dnn_pairs(5),
        );
    }

    #[test]
    #[should_panic(expected = "poisson mean must be finite and non-negative, got inf")]
    fn build_rejects_an_infinite_fault_rate() {
        ChaosRig::build(ChaosConfig::quick(1, Preset::Random).with_fault_rate(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "ChaosConfig.request_period must be positive")]
    fn build_rejects_a_zero_request_period() {
        let mut cfg = ChaosConfig::quick(1, Preset::Random);
        cfg.request_period = SimDuration::ZERO;
        ChaosRig::build(cfg);
    }

    /// Set-up queues one node per client stream and one per event the
    /// plan schedules, while every planned request still counts as
    /// pending.
    #[test]
    fn build_queues_one_node_per_client_and_plan_event() {
        let rig = ChaosRig::build(ChaosConfig::quick(3, Preset::Random).with_fault_rate(4.0));
        let plan_events: u64 = rig
            .plan()
            .events
            .iter()
            .map(|ev| match ev.kind {
                FaultKind::LinkFlap { .. }
                | FaultKind::LossyLink { .. }
                | FaultKind::BadImage { .. } => 2,
                _ => 1,
            })
            .sum();
        assert!(plan_events > 10, "rate 4.0 plans a fault mix");
        let engine = rig.cluster.engine();
        let clients = rig.triples.len() as u64;
        assert_eq!(engine.queue_stats().pushes, clients + plan_events);
        assert_eq!(engine.pending_events() as u64, rig.issued + plan_events);
        assert_eq!(rig.issued, clients * 160, "80 ms at one request per 500 us");
    }

    #[test]
    fn fault_free_run_completes_every_request_cleanly() {
        let mut cfg = ChaosConfig::quick(1, Preset::Random);
        cfg.fault_rate = 0.0;
        cfg.horizon = SimDuration::from_millis(20);
        let rig = ChaosRig::build(cfg);
        assert!(rig.plan().events.is_empty());
        let report = rig.run();
        assert_eq!(report.requests.completed, report.requests.issued);
        assert_eq!(report.requests.lost, 0);
        assert_eq!(report.requests.stranded, 0);
        assert_eq!(report.recovery.failovers, 0);
        assert_eq!(report.fabric.crashes, 0);
    }

    #[test]
    fn golden_image_preset_power_cycles_back_to_golden() {
        let report = ChaosRig::build(ChaosConfig::quick(5, Preset::GoldenImage)).run();
        assert_eq!(report.recovery.power_cycles, 1);
        assert_eq!(report.recovery.records.len(), 1);
        assert!(report.recovery.records[0].power_cycled);
        assert_eq!(
            report.recovery.records[0].service.as_deref(),
            Some("dnn-pool")
        );
        assert!(report.recovery.records[0].replacement.is_some());
        assert_eq!(report.recovery.failovers, 1);
        assert_eq!(report.requests.stranded, 0);
    }

    #[test]
    fn lossy_link_preset_is_absorbed_by_the_transport() {
        let report = ChaosRig::build(ChaosConfig::quick(9, Preset::LossyLink)).run();
        assert!(
            report.transport.injected_drops > 0,
            "the loss window must actually drop frames"
        );
        assert!(
            report.transport.retransmits > 0,
            "dropped frames must be recovered by retransmission"
        );
        assert_eq!(
            report.requests.lost, 0,
            "transport-level loss must not surface as request loss"
        );
        assert_eq!(report.requests.stranded, 0);
        assert_eq!(
            report.recovery.power_cycles, 0,
            "a lossy link is not a down node"
        );
    }

    #[test]
    fn same_seed_reports_serialise_identically() {
        let a = ChaosRig::build(ChaosConfig::quick(42, Preset::Random)).run();
        let b = ChaosRig::build(ChaosConfig::quick(42, Preset::Random)).run();
        let ja = serde_json::to_string_pretty(&a).unwrap();
        let jb = serde_json::to_string_pretty(&b).unwrap();
        assert_eq!(ja, jb, "same seed must give a byte-identical report");
    }

    /// An observer attached through `cluster_mut` sees every event of the
    /// run and, being passive, leaves the report as it was.
    #[test]
    fn observer_attached_through_cluster_mut_counts_every_event() {
        struct Count(u64);
        impl dcsim::Observer<Msg> for Count {
            fn after_event(&mut self, _: &dcsim::EventRecord, _: &dcsim::Engine<Msg>) {
                self.0 += 1;
            }
        }
        let cfg = || ChaosConfig::quick(42, Preset::Random);
        let mut rig = ChaosRig::build(cfg());
        rig.cluster_mut()
            .engine_mut()
            .set_observer(Box::new(Count(0)));
        rig.cluster_mut().run_to_idle();
        let engine = rig.cluster_mut().engine();
        let seen = engine.observer_as::<Count>().expect("still attached").0;
        assert!(seen > 10_000, "a quick run is tens of thousands of events");
        assert_eq!(seen, engine.events_processed());
        assert_eq!(engine.queue_stats().pops, seen, "one pop per event");

        let observed = serde_json::to_string_pretty(&rig.run()).unwrap();
        let plain = serde_json::to_string_pretty(&ChaosRig::build(cfg()).run()).unwrap();
        assert_eq!(observed, plain);
    }
}
