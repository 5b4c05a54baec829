//! Cluster construction: a fabric full of bump-in-the-wire FPGAs.
//!
//! [`Cluster`] wraps a [`dcsim::ShardedEngine`] — one plain
//! [`dcsim::Engine`] until [`Cluster::shard`] partitions it — holding the
//! switching fabric and one [`Shell`] per populated host slot, and offers
//! the wiring operations experiments need: attaching shells to TORs,
//! opening LTL connection pairs, registering consumers, and running the
//! clock.

use std::collections::BTreeMap;

use dcnet::{
    needs_flowsim, Fabric, FabricBuilder, FabricConfig, FabricPartition, Fidelity, FidelityMap,
    FlowSim, FlowSimConfig, Msg, NodeAddr, Switch,
};
use dcsim::{
    Component, ComponentId, Engine, ShardPlan, ShardSyncStats, ShardedEngine, SimDuration, SimTime,
    WindowPolicy,
};
use shell::ltl::{RecvConnId, SendConnId};
use shell::{Shell, ShellConfig, PORT_TOR};
use telemetry::{MetricSource, MetricsSnapshot, Tracer};

/// Configures and builds a [`Cluster`]: fabric dimensions and switch
/// calibration, shell configuration, per-pod fidelity and lazy topology
/// for fleet-scale runs.
///
/// # Examples
///
/// ```
/// use catapult::ClusterBuilder;
///
/// // A paper-calibrated 2-pod, all-packet cluster.
/// let cluster = ClusterBuilder::paper(7, 2).build();
/// assert_eq!(cluster.fabric().shape().total_hosts(), 2 * 40 * 24);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    seed: u64,
    fabric_cfg: FabricConfig,
    shell_cfg: ShellConfig,
    fidelity: Option<FidelityMap>,
    lazy: bool,
}

impl ClusterBuilder {
    /// A builder with default fabric and shell configurations.
    pub fn new(seed: u64) -> Self {
        ClusterBuilder {
            seed,
            fabric_cfg: FabricConfig::default(),
            shell_cfg: ShellConfig::default(),
            fidelity: None,
            lazy: false,
        }
    }

    /// A paper-calibrated builder with `pods` production-scale pods
    /// (24 hosts x 40 racks per pod behind a 4-switch spine).
    pub fn paper(seed: u64, pods: u16) -> Self {
        let shape = crate::calib::paper_shape(pods);
        ClusterBuilder {
            seed,
            fabric_cfg: crate::calib::fabric_config(shape),
            shell_cfg: crate::calib::shell_config(),
            fidelity: None,
            lazy: false,
        }
    }

    /// Replaces the fabric configuration (dimensions + per-tier switches).
    pub fn fabric_config(mut self, cfg: &FabricConfig) -> Self {
        self.fabric_cfg = cfg.clone();
        self
    }

    /// Replaces the shell configuration used by [`Cluster::add_shell`].
    pub fn shell_config(mut self, cfg: ShellConfig) -> Self {
        self.shell_cfg = cfg;
        self
    }

    /// Sets the per-pod fidelity map (defaults to all-packet). When any
    /// pod is at flow fidelity, [`ClusterBuilder::build`] registers a
    /// [`FlowSim`] aggregate model wired to the spine switches.
    pub fn fidelity(mut self, map: FidelityMap) -> Self {
        self.fidelity = Some(map);
        self
    }

    /// Convenience: the first `island` pods at packet fidelity, the rest
    /// as flow-level background (see [`FidelityMap::packet_island`]).
    pub fn packet_island(mut self, island: u16) -> Self {
        self.fidelity = Some(FidelityMap::packet_island(
            self.fabric_cfg.shape.pods,
            island,
        ));
        self
    }

    /// Defers switch instantiation of packet pods until first touched
    /// (see [`dcnet::FabricBuilder::lazy`]).
    pub fn lazy(mut self, lazy: bool) -> Self {
        self.lazy = lazy;
        self
    }

    /// Builds the engine, fabric, and (for hybrid fidelity maps) the
    /// flow-level background model.
    ///
    /// An all-packet, non-lazy build registers the fabric's switches in
    /// [`FabricBuilder::build`]'s fixed order whether the all-packet map
    /// is explicit or defaulted, so telemetry fingerprints are
    /// byte-identical for the same seed.
    ///
    /// # Panics
    ///
    /// Panics if the fidelity map does not match the fabric's pod count.
    pub fn build(self) -> Cluster {
        let shape = self.fabric_cfg.shape;
        let fidelity = self
            .fidelity
            .unwrap_or_else(|| FidelityMap::all_packet(shape.pods));
        let switch_estimate = if self.lazy {
            shape.spines as usize
        } else {
            shape.spines as usize + fidelity.packet_pod_count() * (1 + shape.tors_per_pod as usize)
        };
        let mut engine = Engine::with_capacity(self.seed, switch_estimate + 1);
        let fabric = FabricBuilder::from_config(&self.fabric_cfg)
            .fidelity(fidelity.clone())
            .lazy(self.lazy)
            .build(&mut engine);
        let (flowsim, flowsim_cfg) = if needs_flowsim(&fidelity) {
            let cfg = FlowSimConfig::new(shape);
            let sim = FlowSim::new(cfg.clone())
                .with_fidelity(&fidelity)
                .with_spines(fabric.spine_switches());
            (Some(engine.add_component(sim)), Some(cfg))
        } else {
            (None, None)
        };
        Cluster {
            exec: ShardedEngine::unsharded(engine),
            fabric,
            shell_cfg: self.shell_cfg,
            flowsim,
            flowsim_cfg,
            shells: BTreeMap::new(),
            pins: BTreeMap::new(),
            consumers: BTreeMap::new(),
            paced: BTreeMap::new(),
            tracer: None,
        }
    }
}

/// A built cluster: engine + fabric + shells.
pub struct Cluster {
    /// The executor: unsharded (one plain engine) until [`Cluster::shard`].
    exec: ShardedEngine<Msg>,
    fabric: Fabric,
    shell_cfg: ShellConfig,
    /// The flow-level background model, when the fidelity map is hybrid.
    flowsim: Option<ComponentId>,
    flowsim_cfg: Option<FlowSimConfig>,
    /// Populated slots in address order, so registry snapshots and trace
    /// track registration are deterministic.
    shells: BTreeMap<NodeAddr, ComponentId>,
    /// Experiment components pinned to a slot, so [`Cluster::shard`] can
    /// colocate them with that slot's shell (required for zero-delay
    /// consumer deliveries).
    pins: BTreeMap<ComponentId, NodeAddr>,
    /// LTL consumers per slot, so [`Cluster::shard`] can chain the
    /// shell's cut excess through the consumer's (deliveries are
    /// zero-delay, so the consumer bounds the shell).
    consumers: BTreeMap<NodeAddr, ComponentId>,
    /// Declared per-component minimum send delays ([`Cluster::
    /// add_paced_component_at`]): the floor every send toward another
    /// component promises, enforced at send time under sharded execution
    /// and credited as cut excess by adaptive windows.
    paced: BTreeMap<ComponentId, SimDuration>,
    tracer: Option<Tracer>,
}

impl Cluster {
    /// Adds a bump-in-the-wire FPGA shell at `addr` and cables it to its
    /// TOR. Returns the shell's component id.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the fabric or already populated.
    pub fn add_shell(&mut self, addr: NodeAddr) -> ComponentId {
        assert!(
            !self.shells.contains_key(&addr),
            "slot {addr} already populated"
        );
        let engine = self
            .exec
            .engine_mut()
            .expect("populate the cluster before calling Cluster::shard");
        // Materialize the pod before reserving the shell's id: lazy
        // materialization registers switches, which would otherwise land
        // on the id we just handed to the shell.
        if self.fabric.fidelity().pod(addr.pod) == Fidelity::Packet
            && !self.fabric.is_materialized(addr.pod)
        {
            self.fabric.materialize_pod(engine, addr.pod);
        }
        let shell_id = engine.next_component_id();
        let mut shell = Shell::new(addr, self.shell_cfg.clone());
        let ltl_rx = Some(self.shell_cfg.ltl_rx_latency);
        let attachment = self.fabric.attach(engine, addr, shell_id, PORT_TOR, ltl_rx);
        shell.connect_tor(attachment.tor, attachment.port, None);
        if let Some(tracer) = &self.tracer {
            shell.set_tracer(tracer.track(&format!("shell/{addr}")));
        }
        let id = engine.add_component(shell);
        debug_assert_eq!(id, shell_id);
        self.shells.insert(addr, id);
        id
    }

    /// Registers an experiment component pinned to the slot at `addr`, so
    /// [`Cluster::shard`] places it on the same shard as that slot's
    /// shell. Anything a shell may message with zero delay (an LTL
    /// consumer, a workload driver) must be registered this way — or via
    /// [`Cluster::set_consumer`], which pins automatically.
    pub fn add_component_at<C: Component<Msg>>(
        &mut self,
        addr: NodeAddr,
        component: C,
    ) -> ComponentId {
        let engine = self.exec.engine_mut();
        let id = engine
            .expect("register components before calling Cluster::shard")
            .add_component(component);
        self.pins.insert(id, addr);
        id
    }

    /// Like [`Cluster::add_component_at`], additionally declaring that
    /// the component schedules every event for *other* components at
    /// least `min_send_delay` in the future (self-sends and timers are
    /// exempt). Under sharded execution the promise is asserted at send
    /// time, and adaptive windows credit it as cut excess: while only
    /// paced components have pending events, windows stretch to the
    /// declared delay instead of one lookahead. Declare the honest floor
    /// of the component's reaction time — an overstated floor panics, an
    /// understated one merely extends windows less.
    pub fn add_paced_component_at<C: Component<Msg>>(
        &mut self,
        addr: NodeAddr,
        component: C,
        min_send_delay: SimDuration,
    ) -> ComponentId {
        let id = self.add_component_at(addr, component);
        self.paced.insert(id, min_send_delay);
        id
    }

    /// The shell at `addr`, if populated.
    pub fn shell_id(&self, addr: NodeAddr) -> Option<ComponentId> {
        self.shells.get(&addr).copied()
    }

    /// Immutable access to a shell.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not populated.
    pub fn shell(&self, addr: NodeAddr) -> &Shell {
        let id = self.shells[&addr];
        self.component::<Shell>(id)
            .expect("shell registered at this id")
    }

    /// A typed component reference, in either execution mode.
    pub fn component<T: Component<Msg>>(&self, id: ComponentId) -> Option<&T> {
        self.exec.component(id)
    }

    /// A typed mutable component reference, in either execution mode.
    pub fn component_mut<T: Component<Msg>>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.exec.component_mut(id)
    }

    /// Mutable access to a shell (connection setup, stats extraction).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not populated.
    pub fn shell_mut(&mut self, addr: NodeAddr) -> &mut Shell {
        let id = self.shells[&addr];
        self.component_mut::<Shell>(id)
            .expect("shell registered at this id")
    }

    /// Opens a bidirectional LTL channel between the shells at `a` and
    /// `b`. Returns `(a_send, b_send)` plus the receive ids
    /// `(a_recv, b_recv)`.
    ///
    /// # Panics
    ///
    /// Panics if either slot is unpopulated.
    pub fn connect_pair(
        &mut self,
        a: NodeAddr,
        b: NodeAddr,
    ) -> (SendConnId, SendConnId, RecvConnId, RecvConnId) {
        let a_recv = self.shell_mut(a).ltl_mut().add_recv(b);
        let b_recv = self.shell_mut(b).ltl_mut().add_recv(a);
        let a_send = self.shell_mut(a).ltl_mut().add_send(b, b_recv);
        let b_send = self.shell_mut(b).ltl_mut().add_send(a, a_recv);
        (a_send, b_send, a_recv, b_recv)
    }

    /// Registers `consumer` for LTL deliveries at `addr`, pinning it to
    /// that slot for shard placement (deliveries are zero-delay).
    pub fn set_consumer(&mut self, addr: NodeAddr, consumer: ComponentId) {
        self.pins.insert(consumer, addr);
        self.consumers.insert(addr, consumer);
        self.shell_mut(addr).set_consumer(consumer);
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The engine, for registering experiment components.
    ///
    /// # Panics
    ///
    /// Panics while sharded — use [`Cluster::component_mut`],
    /// [`Cluster::shard_count`] etc., or [`Cluster::unshard`] first.
    pub fn engine_mut(&mut self) -> &mut Engine<Msg> {
        self.exec
            .engine_mut()
            .expect("Cluster::engine_mut is unavailable while sharded; call unshard() first")
    }

    /// The engine, read-only.
    ///
    /// # Panics
    ///
    /// Panics while sharded — use [`Cluster::component`] or
    /// [`Cluster::unshard`] first.
    pub fn engine(&self) -> &Engine<Msg> {
        self.exec
            .engine()
            .expect("Cluster::engine is unavailable while sharded; call unshard() first")
    }

    /// Partitions the executor in place ([`ShardedEngine::partition`]),
    /// cutting the fabric into (up to) `shards` shards along pod or rack
    /// boundaries (see [`FabricPartition`]). Returns the shard count
    /// actually used after clamping. The same dispatch loop keeps running
    /// every event; what changes is the tie-break key and RNG scheme.
    ///
    /// Results are byte-identical to a 1-shard partitioned run for any
    /// shard count — but not to the unsharded engine, whose global-FIFO
    /// key scheme orders same-instant events differently. Compare
    /// fingerprints within one scheme.
    ///
    /// # Panics
    ///
    /// Panics if already sharded, or if tracing is enabled (trace
    /// interleaving across worker threads is not deterministic).
    pub fn shard(&mut self, shards: u32) -> u32 {
        assert!(
            self.tracer.is_none(),
            "sharded execution does not support flight-recorder tracing"
        );
        assert!(
            !self.is_sharded(),
            "Cluster::shard called while already sharded"
        );
        let partition = FabricPartition::plan(&self.fabric, shards)
            .unwrap_or_else(|e| panic!("cannot shard this cluster: {e}"));
        if let Some(cfg) = &self.flowsim_cfg {
            assert!(
                cfg.adapter_delay >= partition.lookahead() || partition.shards() == 1,
                "flowsim adapter delay {:?} is below the shard lookahead {:?}: \
                 pressure updates would violate the conservative window",
                cfg.adapter_delay,
                partition.lookahead()
            );
        }
        let lookahead = partition.lookahead();
        let ncomp = self.exec.component_count();
        // Components not covered below (registered via engine_mut without
        // a pin, the flow-level model, unmaterialized pods) default to
        // shard 0; a zero-delay send from one of them across shards is
        // caught at send time as a lookahead violation. Their cut excess
        // defaults to the universal lookahead floor, and nothing is
        // pacing-asserted unless declared.
        let mut shard_of = vec![0u32; ncomp];
        let mut cut_excess = vec![lookahead; ncomp];
        let mut min_send = vec![SimDuration::ZERO; ncomp];
        for (role, id) in self.fabric.switches() {
            shard_of[id.as_raw()] = partition.shard_of(role);
            cut_excess[id.as_raw()] = partition.cut_excess(role);
        }
        for (&id, &addr) in &self.pins {
            shard_of[id.as_raw()] = partition.endpoint_shard(addr);
        }
        // Paced components: every send toward another component pays the
        // declared floor once, the rest of the chain at least the
        // universal lookahead.
        for (&id, &delay) in &self.paced {
            min_send[id.as_raw()] = delay;
            cut_excess[id.as_raw()] = delay + lookahead;
        }
        for (&addr, &id) in &self.shells {
            shard_of[id.as_raw()] = partition.endpoint_shard(addr);
            // A shell's chains leave either over its access link (one
            // propagation hop, then the TOR's excess) or as a zero-delay
            // delivery to its consumer (the consumer's excess, already
            // final in `cut_excess` because pins precede shells here).
            let mut excess =
                partition.endpoint_cut_excess(addr, self.shell_cfg.tor_link.propagation);
            if let Some(&consumer) = self.consumers.get(&addr) {
                excess = excess.min(cut_excess[consumer.as_raw()]);
            }
            cut_excess[id.as_raw()] = excess;
        }
        if let Some(id) = self.flowsim {
            // The flow model presses spine ports (potentially on other
            // shards) after exactly the adapter delay — asserted above to
            // be no less than the lookahead.
            if let Some(fs_cfg) = &self.flowsim_cfg {
                cut_excess[id.as_raw()] = fs_cfg.adapter_delay;
            }
        }
        let plan = ShardPlan::new(partition.shards(), shard_of, lookahead)
            .with_cut_excess(cut_excess)
            .with_min_send_delay(min_send);
        self.exec.partition(plan);
        partition.shards()
    }

    /// Overrides the window policy of the sharded engine (fixed vs
    /// adaptive, stride cap). Event order — and therefore every telemetry
    /// fingerprint — is policy-independent; only synchronization counts
    /// and wall-clock change.
    ///
    /// # Panics
    ///
    /// Panics when not sharded.
    pub fn set_window_policy(&mut self, policy: WindowPolicy) {
        assert!(
            self.is_sharded(),
            "window policies apply to sharded execution; call Cluster::shard first"
        );
        self.exec.set_window_policy(policy);
    }

    /// Per-shard synchronization counters (empty when not sharded).
    pub fn sync_stats(&self) -> Vec<ShardSyncStats> {
        self.exec.sync_stats()
    }

    /// Worker threads a multi-shard run uses: `min(shards, cores)` unless
    /// capped; 1 when not sharded.
    pub fn effective_workers(&self) -> usize {
        self.exec.effective_workers()
    }

    /// Synchronization rounds so far: one per window on several shards,
    /// one per run call on one shard (0 when not sharded).
    pub fn sync_rounds(&self) -> u64 {
        self.exec.rounds()
    }

    /// The sharded run's critical path in events
    /// ([`ShardedEngine::critical_path`]); the summed
    /// [`ShardSyncStats::events`] over it bounds the speedup any core
    /// count can reach (0 when not sharded).
    pub fn critical_path(&self) -> u64 {
        self.exec.critical_path()
    }

    /// Merges the shards back into the one unrouted engine in place
    /// ([`ShardedEngine::merge`]): pending events and component state
    /// carry over, [`Cluster::engine`] / [`Cluster::engine_mut`] work
    /// again, and [`Cluster::shard`] may be called anew. No-op when not
    /// sharded.
    pub fn unshard(&mut self) {
        self.exec.merge();
    }

    /// Whether the cluster is currently partitioned into shards.
    pub fn is_sharded(&self) -> bool {
        self.exec.engine().is_none()
    }

    /// Number of shards in use (1 when not sharded).
    pub fn shard_count(&self) -> u32 {
        self.exec.shard_count() as u32
    }

    /// Runs the simulation for `span`.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        self.exec.run_for(span)
    }

    /// Runs until the event queue drains.
    pub fn run_to_idle(&mut self) -> u64 {
        self.exec.run_to_idle()
    }

    /// Runs events up to `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        self.exec.run_until(horizon)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.exec.now()
    }

    /// Iterates over populated slots.
    pub fn shells(&self) -> impl Iterator<Item = (NodeAddr, ComponentId)> + '_ {
        self.shells.iter().map(|(&a, &id)| (a, id))
    }

    /// Turns on flight-recorder tracing with a ring buffer of `capacity`
    /// events, installing a track per switch and per populated shell.
    ///
    /// Shells added after this call are traced too. Call before running
    /// the clock; events emitted while tracing is off are simply not
    /// recorded.
    pub fn enable_tracing(&mut self, capacity: usize) {
        let engine = self
            .exec
            .engine_mut()
            .expect("sharded execution does not support flight-recorder tracing");
        let tracer = Tracer::new(capacity);
        for (role, id) in self.fabric.switches() {
            let track = tracer.track(&role.label());
            if let Some(sw) = engine.component_mut::<Switch>(id) {
                sw.set_tracer(track);
            }
        }
        for (addr, &id) in &self.shells {
            let track = tracer.track(&format!("shell/{addr}"));
            if let Some(shell) = engine.component_mut::<Shell>(id) {
                shell.set_tracer(track);
            }
        }
        self.tracer = Some(tracer);
    }

    /// The flight recorder, if [`Cluster::enable_tracing`] has been called.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// One registry snapshot covering every switch and shell, taken at the
    /// current simulated time.
    ///
    /// Component paths are stable across runs: `fabric/` plus each
    /// switch's [`dcnet::SwitchRole::label`] in [`Fabric::switches`] order, then
    /// `shell/pP.tT.hH` in address order, so the serialized snapshot is
    /// byte-identical for identical seeds.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let switches = self.fabric.switches().filter_map(|(role, id)| {
            let sw: &dyn MetricSource = self.component::<Switch>(id)?;
            Some((format!("fabric/{role}"), sw))
        });
        let shells = self.shells.iter().filter_map(|(&addr, &id)| {
            let shell: &dyn MetricSource = self.component::<Shell>(id)?;
            Some((format!("shell/{addr}"), shell))
        });
        let flowsim = self
            .flowsim()
            .map(|fs| ("flowsim".to_string(), fs as &dyn MetricSource));
        let mut snap = MetricsSnapshot::new(self.now());
        snap.extend(switches.chain(shells).chain(flowsim));
        snap
    }

    /// The flow-level background model's component id, when the fidelity
    /// map is hybrid.
    pub fn flowsim_id(&self) -> Option<ComponentId> {
        self.flowsim
    }

    /// The flow-level background model, when the fidelity map is hybrid.
    pub fn flowsim(&self) -> Option<&FlowSim> {
        self.component::<FlowSim>(self.flowsim?)
    }
}

impl core::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Cluster")
            .field("switches", &self.fabric.switch_count())
            .field("shells", &self.shells.len())
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dcsim::{Component, Context};
    use shell::{LtlDeliver, LtlSend};

    /// Records each delivery and when it arrived.
    #[derive(Debug, Default)]
    struct Collector {
        got: Vec<(SimTime, LtlDeliver)>,
    }

    impl Component<Msg> for Collector {
        fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Ok(d) = msg.downcast::<LtlDeliver>() {
                self.got.push((ctx.now(), d));
            }
        }
    }

    #[test]
    fn build_small_cluster_and_message_across_it() {
        let mut cluster = ClusterBuilder::paper(1, 1).build();
        let a = NodeAddr::new(0, 0, 1);
        let b = NodeAddr::new(0, 3, 7); // different rack, same pod (L1 path)
        let a_id = cluster.add_shell(a);
        cluster.add_shell(b);
        let (a_send, _b_send, _, _) = cluster.connect_pair(a, b);
        let collector = cluster.engine_mut().add_component(Collector::default());
        cluster.set_consumer(b, collector);
        cluster.engine_mut().schedule(
            SimTime::ZERO,
            a_id,
            Msg::LtlSend(LtlSend {
                conn: a_send,
                vc: 0,
                payload: Bytes::from_static(b"cross-rack"),
            }),
        );
        cluster.run_to_idle();
        let c = cluster.engine().component::<Collector>(collector).unwrap();
        let [(at, ref got)] = c.got[..] else {
            panic!("one delivery, got {:?}", c.got);
        };
        assert_eq!(got.src, a);
        // L1 one-way should be under 5us.
        assert!(at < SimTime::from_micros(5), "delivered at {at}");
    }

    /// The snapshot's `fabric/…` component paths are exactly the labels of
    /// the switches the canonical walk yields.
    #[track_caller]
    fn assert_fabric_paths_match_the_walk(cluster: &Cluster, switches: usize) {
        let walked: Vec<String> = cluster
            .fabric()
            .switches()
            .map(|(role, _)| format!("fabric/{}", role.label()))
            .collect();
        assert_eq!(walked.len(), switches);
        let snap = cluster.metrics_snapshot();
        let keys: Vec<String> = snap.iter().map(|(key, _)| key).collect();
        let mut published: Vec<&str> = keys
            .iter()
            .filter(|key| key.starts_with("fabric/"))
            .map(|key| key.rsplit_once('/').expect("component/metric").0)
            .collect();
        published.dedup();
        let mut sorted: Vec<&str> = walked.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        assert_eq!(published, sorted);
    }

    #[test]
    fn snapshot_fabric_paths_follow_the_canonical_walk() {
        let shape = dcnet::FabricShape {
            hosts_per_tor: 4,
            tors_per_pod: 3,
            pods: 4,
            spines: 2,
        };
        let builder = ClusterBuilder::new(5).fabric_config(&crate::calib::fabric_config(shape));
        // Eager: every pod's TORs, then the aggs, then the spines.
        let eager = builder.clone().build();
        assert_fabric_paths_match_the_walk(&eager, 4 * 3 + 4 + 2);
        let first: Vec<String> = eager
            .fabric()
            .switches()
            .take(4)
            .map(|(role, _)| role.label())
            .collect();
        assert_eq!(first, ["tor00.00", "tor00.01", "tor00.02", "tor01.00"]);
        // Lazy: spines only until a shell materializes its pod.
        let mut lazy = builder.clone().lazy(true).build();
        assert_fabric_paths_match_the_walk(&lazy, 2);
        lazy.add_shell(NodeAddr::new(2, 1, 0));
        assert_fabric_paths_match_the_walk(&lazy, 3 + 1 + 2);
        // Hybrid: flow-fidelity pods never appear.
        let island = builder.packet_island(2).build();
        assert_fabric_paths_match_the_walk(&island, 2 * 3 + 2 + 2);
    }

    #[test]
    #[should_panic(expected = "already populated")]
    fn double_population_panics() {
        let mut cluster = ClusterBuilder::paper(1, 1).build();
        cluster.add_shell(NodeAddr::new(0, 0, 0));
        cluster.add_shell(NodeAddr::new(0, 0, 0));
    }

    /// Replies to every LTL delivery with another send, `remaining` times.
    #[derive(Debug)]
    struct Volley {
        conn: SendConnId,
        shell: ComponentId,
        remaining: u32,
    }

    impl Component<Msg> for Volley {
        fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if msg.downcast::<LtlDeliver>().is_ok() && self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(
                    self.shell,
                    Msg::LtlSend(LtlSend {
                        conn: self.conn,
                        vc: 0,
                        payload: Bytes::from_static(b"volley"),
                    }),
                );
            }
        }
    }

    /// A cross-pod LTL volley on the sharded engine; returns the
    /// serialized metrics fingerprint and the event count.
    fn sharded_volley_fingerprint(shards: u32) -> (String, u64) {
        let mut cluster = ClusterBuilder::paper(11, 2).build();
        let a = NodeAddr::new(0, 0, 1);
        let b = NodeAddr::new(1, 3, 2);
        let a_id = cluster.add_shell(a);
        let b_id = cluster.add_shell(b);
        let (a_send, b_send, _, _) = cluster.connect_pair(a, b);
        let a_drv = cluster.add_component_at(
            a,
            Volley {
                conn: a_send,
                shell: a_id,
                remaining: 20,
            },
        );
        let b_drv = cluster.add_component_at(
            b,
            Volley {
                conn: b_send,
                shell: b_id,
                remaining: 20,
            },
        );
        cluster.set_consumer(a, a_drv);
        cluster.set_consumer(b, b_drv);
        cluster.engine_mut().schedule(
            SimTime::ZERO,
            a_id,
            Msg::LtlSend(LtlSend {
                conn: a_send,
                vc: 0,
                payload: Bytes::from_static(b"kickoff"),
            }),
        );
        let got = cluster.shard(shards);
        assert_eq!(got, shards, "no clamping expected at this scale");
        let events = cluster.run_for(SimDuration::from_millis(2));
        (cluster.metrics_snapshot().to_json(), events)
    }

    #[test]
    fn sharded_fingerprint_is_invariant_across_shard_counts() {
        let baseline = sharded_volley_fingerprint(1);
        assert!(baseline.1 > 0, "volley produced no events");
        for shards in [2, 4, 8] {
            assert_eq!(
                sharded_volley_fingerprint(shards),
                baseline,
                "shard count {shards} diverged"
            );
        }
    }

    #[derive(Default)]
    struct EventCount(u64);

    impl dcsim::Observer<Msg> for EventCount {
        fn after_event(&mut self, _event: &dcsim::EventRecord, _engine: &Engine<Msg>) {
            self.0 += 1;
        }
    }

    #[test]
    fn unshard_restores_engine_access_and_state() {
        let mut cluster = ClusterBuilder::paper(3, 1).build();
        let a = NodeAddr::new(0, 0, 1);
        let a_id = cluster.add_shell(a);
        cluster.add_shell(NodeAddr::new(0, 1, 1));
        let (a_send, _, _, _) = cluster.connect_pair(a, NodeAddr::new(0, 1, 1));
        cluster.engine_mut().schedule(
            SimTime::ZERO,
            a_id,
            Msg::LtlSend(LtlSend {
                conn: a_send,
                vc: 0,
                payload: Bytes::from_static(b"x"),
            }),
        );
        cluster.shard(4);
        assert!(cluster.is_sharded());
        let ran = cluster.run_for(SimDuration::from_micros(50));
        assert!(ran > 0);
        let t = cluster.now();
        cluster.unshard();
        assert!(!cluster.is_sharded());
        assert_eq!(cluster.engine().now(), t);

        // Partition <-> merge is a cycle, not a one-way door: a second
        // message scheduled on the merged engine runs partly sharded...
        cluster.engine_mut().schedule(
            t,
            a_id,
            Msg::LtlSend(LtlSend {
                conn: a_send,
                vc: 0,
                payload: Bytes::from_static(b"y"),
            }),
        );
        assert_eq!(cluster.shard(2), 2);
        assert!(cluster.run_for(SimDuration::from_micros(1)) > 0);
        cluster.unshard();
        assert_eq!((cluster.shard_count(), cluster.sync_rounds()), (1, 0));

        // ...and finishes on the merged engine, which is a plain engine
        // again: it takes an observer, which sees exactly the events the
        // run reports.
        cluster
            .engine_mut()
            .set_observer(Box::new(EventCount::default()));
        let ran = cluster.run_to_idle();
        assert!(ran > 0);
        let seen = cluster.engine().observer_as::<EventCount>().unwrap().0;
        assert_eq!(seen, ran);
    }

    #[test]
    #[should_panic(expected = "does not support flight-recorder tracing")]
    fn shard_rejects_enabled_tracing() {
        let mut cluster = ClusterBuilder::paper(1, 1).build();
        cluster.enable_tracing(64);
        cluster.shard(2);
    }
}
