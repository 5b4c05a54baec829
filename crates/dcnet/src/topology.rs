//! Three-tier fabric construction.
//!
//! [`FabricBuilder`] instantiates TOR (L0), aggregation (L1) and spine
//! (L2) switches for a [`FabricShape`] and cables them together. Endpoints
//! (hosts, or the bump-in-the-wire FPGA shells that front them) are
//! attached afterwards with [`Fabric::attach`], which returns the TOR
//! attachment the endpoint needs in order to transmit.
//!
//! Two features make quarter-million-host fabrics tractable:
//!
//! * **Hybrid fidelity** ([`FidelityMap`]): pods hosting the flows under
//!   study run at packet fidelity, far pods at [`Fidelity::Flow`] carry no
//!   switch components at all — their traffic is modelled by
//!   [`crate::flowsim::FlowSim`] and shows up on the shared spines as
//!   ECN/queue-occupancy pressure.
//! * **Lazy instantiation** ([`FabricBuilder::lazy`]): packet-fidelity
//!   pods materialize their switch state only when the first endpoint
//!   attaches, so a 260-pod fabric with a 2-pod island allocates 2 pods'
//!   worth of switches.

use core::fmt;

use dcsim::{ComponentId, Engine, SimDuration};

use crate::addr::NodeAddr;
use crate::msg::{Msg, PortId};
use crate::switch::{FabricShape, Switch, SwitchConfig, SwitchRole};

/// Simulation fidelity of one pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Full packet-level simulation: TOR and aggregation switches exist
    /// and every frame is forwarded event by event.
    #[default]
    Packet,
    /// Flow-level aggregate: the pod has no switch components; its
    /// traffic lives in [`crate::flowsim::FlowSim`] and is felt by
    /// packet-fidelity pods only as boundary pressure on the spines.
    Flow,
}

/// Per-pod fidelity assignment for a fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FidelityMap {
    per_pod: Vec<Fidelity>,
}

impl FidelityMap {
    /// Every pod at the same fidelity.
    pub fn uniform(pods: u16, fidelity: Fidelity) -> Self {
        FidelityMap {
            per_pod: vec![fidelity; pods as usize],
        }
    }

    /// Every pod at packet fidelity (the legacy behaviour).
    pub fn all_packet(pods: u16) -> Self {
        Self::uniform(pods, Fidelity::Packet)
    }

    /// The first `island` pods at packet fidelity, the rest at flow
    /// fidelity — the standard fleet-scale setup: a small island under
    /// study inside a large aggregate background.
    ///
    /// # Panics
    ///
    /// Panics if `island > pods`.
    pub fn packet_island(pods: u16, island: u16) -> Self {
        assert!(
            island <= pods,
            "island of {island} packet pods exceeds the {pods}-pod fabric"
        );
        let mut map = Self::uniform(pods, Fidelity::Flow);
        for pod in 0..island {
            map.set(pod, Fidelity::Packet);
        }
        map
    }

    /// Sets one pod's fidelity.
    ///
    /// # Panics
    ///
    /// Panics if `pod` is outside the map.
    pub fn set(&mut self, pod: u16, fidelity: Fidelity) {
        assert!(
            (pod as usize) < self.per_pod.len(),
            "pod {pod} outside the {}-pod fidelity map",
            self.per_pod.len()
        );
        self.per_pod[pod as usize] = fidelity;
    }

    /// The fidelity of `pod`.
    ///
    /// # Panics
    ///
    /// Panics if `pod` is outside the map.
    pub fn pod(&self, pod: u16) -> Fidelity {
        self.per_pod[pod as usize]
    }

    /// Number of pods covered.
    pub fn pods(&self) -> u16 {
        self.per_pod.len() as u16
    }

    /// Iterates over the packet-fidelity pod indices, ascending.
    pub fn packet_pods(&self) -> impl Iterator<Item = u16> + '_ {
        self.per_pod
            .iter()
            .enumerate()
            .filter(|(_, f)| **f == Fidelity::Packet)
            .map(|(i, _)| i as u16)
    }

    /// Iterates over the flow-fidelity pod indices, ascending.
    pub fn flow_pods(&self) -> impl Iterator<Item = u16> + '_ {
        self.per_pod
            .iter()
            .enumerate()
            .filter(|(_, f)| **f == Fidelity::Flow)
            .map(|(i, _)| i as u16)
    }

    /// Number of packet-fidelity pods.
    pub fn packet_pod_count(&self) -> usize {
        self.packet_pods().count()
    }

    /// `true` when every pod is at packet fidelity (legacy-equivalent).
    pub fn is_all_packet(&self) -> bool {
        self.per_pod.iter().all(|f| *f == Fidelity::Packet)
    }
}

/// A switch → shard map for conservative parallel simulation, plus the
/// lookahead (minimum cross-shard event delay) the partition guarantees.
///
/// The partition follows the physical hierarchy so the cheapest, most
/// frequent traffic (host↔TOR, TOR↔agg within a pod) stays shard-local
/// and only tall links are cut. Endpoints (shells and the experiment
/// components they deliver to, which may be messaged with zero delay)
/// must be placed on their TOR's shard — [`FabricPartition::endpoint_shard`]
/// says which.
///
/// The lookahead is derived from the switch configuration, not assumed:
/// the earliest event a switch can put on a cut link is a PFC control
/// frame at exactly the link's propagation delay, or — when PFC cannot
/// fire on that tier — a forwarded packet at no less than propagation
/// plus the pipeline's base latency.
#[derive(Debug, Clone)]
pub struct FabricPartition {
    shards: u32,
    shape: FabricShape,
    /// Shard of each TOR, pod-major (`pod * tors_per_pod + tor`).
    tor_shard: Vec<u32>,
    /// Shard of each pod's aggregation switch.
    agg_shard: Vec<u32>,
    /// Shard of each spine switch.
    spine_shard: Vec<u32>,
    /// [`min_egress_delay`] of the TOR, aggregation and spine tiers,
    /// captured at plan time.
    tor_egress: SimDuration,
    agg_egress: SimDuration,
    spine_egress: SimDuration,
    lookahead: SimDuration,
}

/// The earliest event `cfg` can emit toward a link peer: a PFC frame
/// after one propagation delay, or (PFC impossible) a forwarded packet
/// after at least propagation plus the fixed pipeline latency.
fn min_egress_delay(cfg: &SwitchConfig) -> SimDuration {
    let pfc_can_fire = cfg.pfc.is_some() && cfg.lossless_mask != 0;
    if pfc_can_fire {
        cfg.link.propagation
    } else {
        cfg.link.propagation + cfg.base_latency
    }
}

/// Why a partition request was rejected ([`FabricPartition::plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// More shards requested than packet-fidelity pods exist. Hybrid
    /// partitions only cut along pod boundaries (flow-fidelity pods have
    /// no components to shard), so the shard count cannot exceed the
    /// packet-pod count.
    ShardsExceedPacketPods {
        /// Requested shard count.
        shards: u32,
        /// Packet-fidelity pods available.
        packet_pods: u32,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ShardsExceedPacketPods {
                shards,
                packet_pods,
            } => write!(
                f,
                "cannot shard a hybrid fabric into {shards} shards: only \
                 {packet_pods} packet-fidelity pods exist and hybrid \
                 partitions cut on pod boundaries only"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

impl FabricPartition {
    /// Plans a partition of `fabric` into (up to) `shards` shards.
    ///
    /// Packet-fidelity pods are dealt out in contiguous blocks while
    /// `shards` does not exceed their number; every flow-fidelity pod's
    /// (non-existent) switches map to shard 0, where
    /// [`crate::flowsim::FlowSim`] lives. Beyond that an all-packet fabric
    /// drops to rack granularity — TOR↔agg links are cut too, each
    /// aggregation switch rides with its pod's first rack, and `shards` is
    /// clamped to the TOR count — while a hybrid fabric is rejected rather
    /// than silently mispartitioned. Spines are distributed round-robin.
    /// Requesting 0 shards plans 1.
    pub fn plan(fabric: &Fabric, shards: u32) -> Result<FabricPartition, PartitionError> {
        let cfg = fabric.config();
        let shape = cfg.shape;
        let tors_per_pod = shape.tors_per_pod as usize;
        let total_tors = shape.pods as usize * tors_per_pod;
        let packet_pods: Vec<u16> = fabric.fidelity().packet_pods().collect();
        let all_packet = fabric.fidelity().is_all_packet();

        let mut shards = shards.max(1);
        if all_packet {
            shards = shards.min(total_tors.max(1) as u32);
        }
        let by_pod = shards as usize <= packet_pods.len().max(1);
        if !by_pod && !all_packet {
            return Err(PartitionError::ShardsExceedPacketPods {
                shards,
                packet_pods: packet_pods.len() as u32,
            });
        }

        let mut tor_shard = vec![0u32; total_tors];
        let mut agg_shard = vec![0u32; shape.pods as usize];
        if by_pod {
            for (i, &pod) in packet_pods.iter().enumerate() {
                let pod = pod as usize;
                let shard = (i as u64 * u64::from(shards) / packet_pods.len() as u64) as u32;
                agg_shard[pod] = shard;
                tor_shard[pod * tors_per_pod..][..tors_per_pod].fill(shard);
            }
        } else {
            for (global, shard) in tor_shard.iter_mut().enumerate() {
                *shard = (global as u64 * u64::from(shards) / total_tors as u64) as u32;
            }
            for (pod, shard) in agg_shard.iter_mut().enumerate() {
                *shard = tor_shard[pod * tors_per_pod];
            }
        }
        let spine_shard = (0..shape.spines).map(|i| u32::from(i) % shards).collect();

        let tor_egress = min_egress_delay(&cfg.tor);
        let agg_egress = min_egress_delay(&cfg.agg);
        let spine_egress = min_egress_delay(&cfg.spine);
        let lookahead = if shards == 1 {
            // No cut links: any window is safe.
            SimDuration::MAX
        } else if by_pod {
            agg_egress.min(spine_egress)
        } else {
            // Conservative: treat every inter-tier link of a cut tier
            // pair as crossing shards.
            agg_egress.min(spine_egress).min(tor_egress)
        };

        Ok(FabricPartition {
            shards,
            shape,
            tor_shard,
            agg_shard,
            spine_shard,
            tor_egress,
            agg_egress,
            spine_egress,
            lookahead,
        })
    }

    /// Number of shards actually planned (after clamping).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The guaranteed minimum delay of any cross-shard event.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Shard of the switch at `role`, materialized or not.
    ///
    /// # Panics
    ///
    /// Panics if `role` is outside the fabric shape.
    pub fn shard_of(&self, role: SwitchRole) -> u32 {
        match role {
            SwitchRole::Tor { pod, tor } => self.pod_tor_shards(pod)[tor as usize],
            SwitchRole::Agg { pod } => self.agg_shard[pod as usize],
            SwitchRole::Spine { index } => self.spine_shard[index as usize],
        }
    }

    /// Shards of `pod`'s TORs, in rack order.
    fn pod_tor_shards(&self, pod: u16) -> &[u32] {
        let tors_per_pod = self.shape.tors_per_pod as usize;
        &self.tor_shard[pod as usize * tors_per_pod..][..tors_per_pod]
    }

    /// Shard an endpoint at `addr` (and anything it messages with zero
    /// delay) must be placed on: its TOR's.
    pub fn endpoint_shard(&self, addr: NodeAddr) -> u32 {
        self.shard_of(tor_of(addr))
    }

    /// `true` when the switch at `role` is a cut member, i.e. one of its
    /// links crosses shards: a TOR whose aggregation switch lives
    /// elsewhere (rack granularity only), an aggregation switch with a
    /// spine or one of its own racks elsewhere, a spine with some pod's
    /// aggregation switch elsewhere.
    fn is_cut(&self, role: SwitchRole) -> bool {
        let me = self.shard_of(role);
        match role {
            SwitchRole::Tor { pod, .. } => me != self.agg_shard[pod as usize],
            SwitchRole::Agg { pod } => self
                .spine_shard
                .iter()
                .chain(self.pod_tor_shards(pod))
                .any(|&s| s != me),
            SwitchRole::Spine { .. } => self.agg_shard.iter().any(|&s| s != me),
        }
    }

    /// Cut excess of the switch at `role`: a lower bound on the delay
    /// between an event processed there and any cross-shard arrival a
    /// causal chain from it can produce. A cut member's excess is its own
    /// minimum egress delay (the final hop may cross directly); a non-cut
    /// switch first pays a shard-local hop, then at least the partition
    /// lookahead for the rest of the chain. Unbounded with one shard.
    pub fn cut_excess(&self, role: SwitchRole) -> SimDuration {
        let egress = match role {
            SwitchRole::Tor { .. } => self.tor_egress,
            SwitchRole::Agg { .. } => self.agg_egress,
            SwitchRole::Spine { .. } => self.spine_egress,
        };
        if self.is_cut(role) {
            egress
        } else {
            egress + self.lookahead
        }
    }

    /// Cut excess of an endpoint at `addr` whose first hop onto the
    /// fabric costs at least `first_hop` (e.g. its access-link
    /// propagation delay): the hop plus its TOR's excess. Endpoints are
    /// never cut members themselves ([`FabricPartition::endpoint_shard`]
    /// colocates them with their TOR).
    pub fn endpoint_cut_excess(&self, addr: NodeAddr, first_hop: SimDuration) -> SimDuration {
        first_hop + self.cut_excess(tor_of(addr))
    }
}

/// The TOR an endpoint at `addr` hangs off.
fn tor_of(addr: NodeAddr) -> SwitchRole {
    SwitchRole::Tor {
        pod: addr.pod,
        tor: addr.tor,
    }
}

/// Per-tier switch configurations for a fabric.
#[derive(Debug, Clone, Default)]
pub struct FabricConfig {
    /// Fabric dimensions.
    pub shape: FabricShape,
    /// Configuration of every TOR switch.
    pub tor: SwitchConfig,
    /// Configuration of every aggregation switch.
    pub agg: SwitchConfig,
    /// Configuration of every spine switch.
    pub spine: SwitchConfig,
}

/// Where an endpoint plugs into the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attachment {
    /// The TOR switch component.
    pub tor: ComponentId,
    /// The TOR port facing the endpoint.
    pub port: PortId,
    /// The endpoint's fabric address.
    pub addr: NodeAddr,
}

/// Configures and builds a [`Fabric`]: dimensions, per-tier switch
/// configuration, per-pod fidelity and lazy instantiation.
///
/// # Examples
///
/// ```
/// use dcnet::{FabricBuilder, Fidelity, Msg};
/// use dcsim::Engine;
///
/// let mut engine: Engine<Msg> = Engine::new(1);
/// let fabric = FabricBuilder::new()
///     .pods(4)
///     .tors_per_pod(8)
///     .hosts_per_tor(16)
///     .build(&mut engine);
/// assert_eq!(fabric.shape().total_hosts(), 4 * 8 * 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FabricBuilder {
    cfg: FabricConfig,
    fidelity: Option<FidelityMap>,
    lazy: bool,
}

impl FabricBuilder {
    /// A builder with default dimensions and switch configurations.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder seeded from an existing per-tier configuration.
    pub fn from_config(cfg: &FabricConfig) -> Self {
        FabricBuilder {
            cfg: cfg.clone(),
            ..Self::default()
        }
    }

    /// Sets all fabric dimensions at once.
    pub fn shape(mut self, shape: FabricShape) -> Self {
        self.cfg.shape = shape;
        self
    }

    /// Sets the number of pods.
    pub fn pods(mut self, pods: u16) -> Self {
        self.cfg.shape.pods = pods;
        self
    }

    /// Sets the number of racks per pod.
    pub fn tors_per_pod(mut self, tors: u16) -> Self {
        self.cfg.shape.tors_per_pod = tors;
        self
    }

    /// Sets the number of host slots per rack.
    pub fn hosts_per_tor(mut self, hosts: u16) -> Self {
        self.cfg.shape.hosts_per_tor = hosts;
        self
    }

    /// Sets the number of spine switches.
    pub fn spines(mut self, spines: u16) -> Self {
        self.cfg.shape.spines = spines;
        self
    }

    /// Sets the per-pod fidelity map (defaults to all-packet). The map
    /// must cover exactly the shape's pod count at [`FabricBuilder::build`]
    /// time.
    pub fn fidelity(mut self, map: FidelityMap) -> Self {
        self.fidelity = Some(map);
        self
    }

    /// Defers switch instantiation of packet-fidelity pods until the
    /// first endpoint attaches ([`Fabric::attach`] /
    /// [`Fabric::materialize_pod`]). Spines are always built eagerly:
    /// they are the cross-pod glue and the target of flow-level boundary
    /// pressure.
    pub fn lazy(mut self, lazy: bool) -> Self {
        self.lazy = lazy;
        self
    }

    /// Builds the fabric: spines always, packet-fidelity pods eagerly
    /// unless [`FabricBuilder::lazy`], flow-fidelity pods never.
    ///
    /// The eager all-packet path registers components in a fixed order
    /// (spines, then per pod: aggregation switch then TORs); component
    /// ids feed telemetry fingerprints, so that order is part of the
    /// determinism contract.
    ///
    /// # Panics
    ///
    /// Panics if the fidelity map does not cover the shape's pod count.
    pub fn build(self, engine: &mut Engine<Msg>) -> Fabric {
        let shape = self.cfg.shape;
        let fidelity = self
            .fidelity
            .unwrap_or_else(|| FidelityMap::all_packet(shape.pods));
        assert_eq!(
            fidelity.pods(),
            shape.pods,
            "fidelity map covers {} pods but the shape has {}",
            fidelity.pods(),
            shape.pods
        );

        let pods = shape.pods as usize;
        let mut fabric = Fabric {
            cfg: self.cfg,
            fidelity,
            lazy: self.lazy,
            tors: vec![None; pods * shape.tors_per_pod as usize],
            aggs: vec![None; pods],
            spines: Vec::with_capacity(shape.spines as usize),
        };
        for index in 0..shape.spines {
            fabric.spines.push(engine.add_component(Switch::new(
                SwitchRole::Spine { index },
                shape,
                fabric.cfg.spine.clone(),
            )));
        }
        if !fabric.lazy {
            // Register every pod's components first, then cable: ids
            // feed fingerprints, so this order is fixed.
            for pod in 0..shape.pods {
                if fabric.fidelity.pod(pod) == Fidelity::Packet {
                    fabric.register_pod(engine, pod);
                }
            }
            for pod in 0..shape.pods {
                if fabric.fidelity.pod(pod) == Fidelity::Packet {
                    fabric.cable_pod(engine, pod);
                }
            }
        }
        fabric
    }
}

/// A built three-tier switching fabric.
#[derive(Debug, Clone)]
pub struct Fabric {
    /// Dimensions and per-tier switch configurations (the TOR and
    /// aggregation ones feed lazy materialization, all three partition
    /// planning).
    cfg: FabricConfig,
    fidelity: FidelityMap,
    lazy: bool,
    /// TOR switches, indexed `pod * tors_per_pod + tor`; `None` for
    /// flow-fidelity or not-yet-materialized pods.
    tors: Vec<Option<ComponentId>>,
    /// Aggregation switches, indexed by pod; `None` as above.
    aggs: Vec<Option<ComponentId>>,
    /// Spine switches (always present).
    spines: Vec<ComponentId>,
}

impl Fabric {
    /// Registers `pod`'s aggregation switch and TORs (ids in the eager
    /// order: agg first, then TORs ascending). No cabling yet.
    fn register_pod(&mut self, engine: &mut Engine<Msg>, pod: u16) {
        let shape = self.cfg.shape;
        let agg = engine.add_component(Switch::new(
            SwitchRole::Agg { pod },
            shape,
            self.cfg.agg.clone(),
        ));
        self.aggs[pod as usize] = Some(agg);
        for tor in 0..shape.tors_per_pod {
            let tor_id = engine.add_component(Switch::new(
                SwitchRole::Tor { pod, tor },
                shape,
                self.cfg.tor.clone(),
            ));
            self.tors[pod as usize * shape.tors_per_pod as usize + tor as usize] = Some(tor_id);
        }
    }

    /// Cables `pod`'s TOR uplinks to its aggregation switch and the
    /// aggregation uplinks to every spine.
    fn cable_pod(&mut self, engine: &mut Engine<Msg>, pod: u16) {
        let shape = self.cfg.shape;
        let agg = self.aggs[pod as usize].expect("pod registered before cabling");
        for tor in 0..shape.tors_per_pod {
            let tor_id = self.tor_switch(pod, tor);
            let uplink = PortId(shape.hosts_per_tor);
            let down = PortId(tor);
            engine
                .component_mut::<Switch>(tor_id)
                .expect("tor exists")
                .connect(uplink, agg, down);
            engine
                .component_mut::<Switch>(agg)
                .expect("agg exists")
                .connect(down, tor_id, uplink);
        }
        for s in 0..shape.spines {
            let spine = self.spines[s as usize];
            let up = PortId(shape.tors_per_pod + s);
            let down = PortId(pod);
            engine
                .component_mut::<Switch>(agg)
                .expect("agg exists")
                .connect(up, spine, down);
            engine
                .component_mut::<Switch>(spine)
                .expect("spine exists")
                .connect(down, agg, up);
        }
    }

    /// Materializes a lazy packet-fidelity pod: registers and cables its
    /// aggregation switch and TORs. Idempotent; returns `true` when the
    /// pod was materialized by this call.
    ///
    /// # Panics
    ///
    /// Panics if `pod` is outside the shape or at flow fidelity (flow
    /// pods have no packet-level switches to materialize).
    pub fn materialize_pod(&mut self, engine: &mut Engine<Msg>, pod: u16) -> bool {
        assert!(
            pod < self.cfg.shape.pods,
            "pod {pod} outside the fabric shape"
        );
        assert_eq!(
            self.fidelity.pod(pod),
            Fidelity::Packet,
            "pod {pod} is flow-fidelity: it has no packet-level switches"
        );
        if self.aggs[pod as usize].is_some() {
            return false;
        }
        self.register_pod(engine, pod);
        self.cable_pod(engine, pod);
        true
    }

    /// The fabric dimensions.
    pub fn shape(&self) -> FabricShape {
        self.cfg.shape
    }

    /// The dimensions and per-tier switch configurations the fabric was
    /// built from.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// The per-pod fidelity map.
    pub fn fidelity(&self) -> &FidelityMap {
        &self.fidelity
    }

    /// Whether packet pods materialize lazily.
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// Whether `pod`'s switches currently exist.
    pub fn is_materialized(&self, pod: u16) -> bool {
        self.aggs[pod as usize].is_some()
    }

    /// Number of pods whose switches currently exist.
    pub fn materialized_pods(&self) -> usize {
        self.aggs.iter().filter(|a| a.is_some()).count()
    }

    /// The switch at `role`, or `None` when its pod is at flow fidelity
    /// or not yet materialized (spines always exist).
    ///
    /// # Panics
    ///
    /// Panics if `role` is outside the fabric shape.
    pub fn switch(&self, role: SwitchRole) -> Option<ComponentId> {
        let shape = self.cfg.shape;
        match role {
            SwitchRole::Tor { pod, tor } => {
                assert!(pod < shape.pods && tor < shape.tors_per_pod);
                self.tors[pod as usize * shape.tors_per_pod as usize + tor as usize]
            }
            SwitchRole::Agg { pod } => self.aggs[pod as usize],
            SwitchRole::Spine { index } => Some(self.spines[index as usize]),
        }
    }

    /// Every switch that currently exists, in the canonical order trace
    /// tracks and telemetry paths are registered in: TORs pod-major, then
    /// aggregation switches, then spines.
    pub fn switches(&self) -> impl Iterator<Item = (SwitchRole, ComponentId)> + '_ {
        roles(self.cfg.shape).filter_map(|role| Some((role, self.switch(role)?)))
    }

    /// The TOR switch component for rack `(pod, tor)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the fabric shape, or the pod
    /// is at flow fidelity / not yet materialized (use [`Fabric::switch`]
    /// for an optional lookup).
    pub fn tor_switch(&self, pod: u16, tor: u16) -> ComponentId {
        self.switch(SwitchRole::Tor { pod, tor }).unwrap_or_else(|| {
            panic!("pod {pod} has no packet-level switches (flow-fidelity or not yet materialized)")
        })
    }

    /// All spine switches.
    pub fn spine_switches(&self) -> &[ComponentId] {
        &self.spines
    }

    /// Cables `endpoint` (via its `endpoint_port`) to the TOR port for
    /// `addr`, and returns the attachment the endpoint should transmit to.
    /// On a lazy fabric this materializes the pod first. A shell declares
    /// its LTL receive latency as `ltl_rx`, and its LTL frames then enter
    /// that stage straight from the TOR ([`Switch::connect_shell`]); any
    /// other endpoint passes `None` and receives packets.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the fabric shape, or its pod is at
    /// flow fidelity (flow pods cannot host packet-level endpoints).
    pub fn attach(
        &mut self,
        engine: &mut Engine<Msg>,
        addr: NodeAddr,
        endpoint: ComponentId,
        endpoint_port: PortId,
        ltl_rx: Option<SimDuration>,
    ) -> Attachment {
        self.cfg
            .shape
            .validate(addr)
            .unwrap_or_else(|e| panic!("attach {addr}: {e}"));
        assert_eq!(
            self.fidelity.pod(addr.pod),
            Fidelity::Packet,
            "cannot attach an endpoint in flow-fidelity pod {}",
            addr.pod
        );
        if !self.is_materialized(addr.pod) {
            assert!(
                self.lazy,
                "pod {} was never materialized on a non-lazy fabric",
                addr.pod
            );
            self.materialize_pod(engine, addr.pod);
        }
        let tor = self.tor_switch(addr.pod, addr.tor);
        let sw = engine.component_mut::<Switch>(tor).expect("tor exists");
        match ltl_rx {
            Some(latency) => sw.connect_shell(PortId(addr.host), endpoint, endpoint_port, latency),
            None => sw.connect(PortId(addr.host), endpoint, endpoint_port),
        }
        Attachment {
            tor,
            port: PortId(addr.host),
            addr,
        }
    }

    /// Number of switches currently instantiated in the fabric.
    pub fn switch_count(&self) -> usize {
        self.switches().count()
    }
}

/// Every switch position of `shape` in canonical order: TORs pod-major,
/// then aggregation switches, then spines.
fn roles(shape: FabricShape) -> impl Iterator<Item = SwitchRole> {
    let tors = (0..shape.pods)
        .flat_map(move |pod| (0..shape.tors_per_pod).map(move |tor| SwitchRole::Tor { pod, tor }));
    let aggs = (0..shape.pods).map(|pod| SwitchRole::Agg { pod });
    let spines = (0..shape.spines).map(|index| SwitchRole::Spine { index });
    tors.chain(aggs).chain(spines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::NetEvent;
    use crate::packet::{Packet, TrafficClass};
    use bytes::Bytes;
    use dcsim::{Component, Context, SimTime};

    #[derive(Debug, Default)]
    struct Endpoint {
        got: Vec<Packet>,
    }

    impl Component<Msg> for Endpoint {
        fn on_message(&mut self, msg: Msg, _ctx: &mut Context<'_, Msg>) {
            if let Msg::Net(NetEvent::Packet { pkt, .. }) = msg {
                self.got.push(pkt);
            }
        }
    }

    fn small_cfg() -> FabricConfig {
        FabricConfig {
            shape: FabricShape {
                hosts_per_tor: 4,
                tors_per_pod: 3,
                pods: 2,
                spines: 2,
            },
            ..FabricConfig::default()
        }
    }

    #[test]
    fn builds_expected_switch_counts() {
        let mut e: Engine<Msg> = Engine::new(1);
        let f = FabricBuilder::from_config(&small_cfg()).build(&mut e);
        assert_eq!(f.switch_count(), 2 * 3 + 2 + 2);
        assert_eq!(f.shape().total_hosts(), 24);
        assert_eq!(f.materialized_pods(), 2);
        assert!(!f.is_lazy());
    }

    #[test]
    fn lazy_fabric_materializes_on_attach() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut f = FabricBuilder::from_config(&small_cfg())
            .lazy(true)
            .build(&mut e);
        // Only spines exist up front.
        assert_eq!(f.switch_count(), 2);
        assert_eq!(f.materialized_pods(), 0);
        assert!(f.switch(SwitchRole::Tor { pod: 1, tor: 0 }).is_none());
        let ep = e.add_component(Endpoint::default());
        f.attach(&mut e, NodeAddr::new(1, 0, 0), ep, PortId(0), None);
        assert!(f.is_materialized(1));
        assert!(!f.is_materialized(0));
        assert_eq!(f.switch_count(), 2 + 1 + 3);
        // Idempotent: a second touch is a no-op.
        assert!(!f.materialize_pod(&mut e, 1));
    }

    #[test]
    fn lazy_pod_routes_after_materialization() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut f = FabricBuilder::from_config(&small_cfg())
            .lazy(true)
            .build(&mut e);
        let src = NodeAddr::new(0, 0, 1);
        let dst = NodeAddr::new(1, 1, 3);
        let src_ep = e.add_component(Endpoint::default());
        let dst_ep = e.add_component(Endpoint::default());
        let src_at = f.attach(&mut e, src, src_ep, PortId(0), None);
        f.attach(&mut e, dst, dst_ep, PortId(0), None);
        let pkt = Packet::new(
            src,
            dst,
            1,
            2,
            TrafficClass::BEST_EFFORT,
            Bytes::from(vec![0u8; 100]),
        );
        e.schedule(SimTime::ZERO, src_at.tor, Msg::packet(pkt, src_at.port));
        e.run_to_idle();
        assert_eq!(e.component::<Endpoint>(dst_ep).unwrap().got.len(), 1);
    }

    #[test]
    fn flow_pods_have_no_switches() {
        let mut e: Engine<Msg> = Engine::new(1);
        let f = FabricBuilder::from_config(&small_cfg())
            .fidelity(FidelityMap::packet_island(2, 1))
            .build(&mut e);
        // Pod 0 is packet fidelity, pod 1 is flow-only.
        assert!(f.switch(SwitchRole::Agg { pod: 0 }).is_some());
        assert!(f.switch(SwitchRole::Agg { pod: 1 }).is_none());
        assert_eq!(f.switch_count(), 2 + 1 + 3);
        assert_eq!(f.fidelity().pod(1), Fidelity::Flow);
    }

    #[test]
    #[should_panic(expected = "flow-fidelity")]
    fn attach_rejects_flow_pod() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut f = FabricBuilder::from_config(&small_cfg())
            .fidelity(FidelityMap::packet_island(2, 1))
            .build(&mut e);
        let ep = e.add_component(Endpoint::default());
        f.attach(&mut e, NodeAddr::new(1, 0, 0), ep, PortId(0), None);
    }

    fn send_between(src: NodeAddr, dst: NodeAddr) -> (Engine<Msg>, ComponentId, SimTime) {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut f = FabricBuilder::from_config(&small_cfg()).build(&mut e);
        let src_ep = e.add_component(Endpoint::default());
        let dst_ep = e.add_component(Endpoint::default());
        let src_at = f.attach(&mut e, src, src_ep, PortId(0), None);
        f.attach(&mut e, dst, dst_ep, PortId(0), None);
        let pkt = Packet::new(
            src,
            dst,
            1,
            2,
            TrafficClass::BEST_EFFORT,
            Bytes::from(vec![0u8; 100]),
        );
        e.schedule(SimTime::ZERO, src_at.tor, Msg::packet(pkt, src_at.port));
        e.run_to_idle();
        let now = e.now();
        (e, dst_ep, now)
    }

    #[test]
    fn same_tor_delivery() {
        let (e, dst, _) = send_between(NodeAddr::new(0, 0, 1), NodeAddr::new(0, 0, 2));
        assert_eq!(e.component::<Endpoint>(dst).unwrap().got.len(), 1);
    }

    #[test]
    fn same_pod_crosses_agg() {
        let (e, dst, _) = send_between(NodeAddr::new(0, 0, 1), NodeAddr::new(0, 2, 2));
        let ep = e.component::<Endpoint>(dst).unwrap();
        assert_eq!(ep.got.len(), 1);
        assert_eq!(ep.got[0].ttl, 64 - 3); // TOR + agg + TOR
    }

    #[test]
    fn cross_pod_crosses_spine() {
        let (e, dst, _) = send_between(NodeAddr::new(0, 0, 1), NodeAddr::new(1, 1, 3));
        let ep = e.component::<Endpoint>(dst).unwrap();
        assert_eq!(ep.got.len(), 1);
        assert_eq!(ep.got[0].ttl, 64 - 5); // TOR + agg + spine + agg + TOR
    }

    #[test]
    fn latency_grows_with_tier() {
        let (_, _, t0) = send_between(NodeAddr::new(0, 0, 1), NodeAddr::new(0, 0, 2));
        let (_, _, t1) = send_between(NodeAddr::new(0, 0, 1), NodeAddr::new(0, 2, 2));
        let (_, _, t2) = send_between(NodeAddr::new(0, 0, 1), NodeAddr::new(1, 1, 3));
        assert!(t0 < t1, "L0 {t0} < L1 {t1}");
        assert!(t1 < t2, "L1 {t1} < L2 {t2}");
    }

    #[test]
    fn ecmp_spreads_flows_across_spines() {
        let mut e: Engine<Msg> = Engine::new(1);
        let f = FabricBuilder::from_config(&small_cfg()).build(&mut e);
        let agg = f.switch(SwitchRole::Agg { pod: 0 }).unwrap();
        let agg = e.component::<Switch>(agg).unwrap();
        let mut seen = std::collections::HashSet::new();
        for flow in 0..16u64 {
            seen.insert(agg.route(NodeAddr::new(1, 0, 0), flow));
        }
        assert_eq!(seen.len(), 2, "both spine uplinks used");
    }

    #[test]
    #[should_panic(expected = "host index")]
    fn attach_rejects_bad_host() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut f = FabricBuilder::from_config(&small_cfg()).build(&mut e);
        let ep = e.add_component(Endpoint::default());
        f.attach(&mut e, NodeAddr::new(0, 0, 9), ep, PortId(0), None);
    }

    /// The figure-10 fabric: paper shape plus the calibrated per-tier
    /// latencies (replicated here because dcnet sits below the
    /// calibration crate).
    fn fig10_cfg(pods: u16) -> FabricConfig {
        use crate::link::LinkParams;
        FabricConfig {
            shape: FabricShape {
                hosts_per_tor: 24,
                tors_per_pod: 40,
                pods,
                spines: 4,
            },
            tor: SwitchConfig::default()
                .with_base_latency(SimDuration::from_nanos(280))
                .with_link(LinkParams::gbe40(SimDuration::from_nanos(100))),
            agg: SwitchConfig::default()
                .with_base_latency(SimDuration::from_nanos(1_560))
                .with_link(LinkParams::gbe40(SimDuration::from_nanos(370))),
            spine: SwitchConfig::default()
                .with_base_latency(SimDuration::from_nanos(2_610))
                .with_link(LinkParams::gbe40(SimDuration::from_nanos(485))),
        }
    }

    /// Plans `shards` over a lazily built `cfg` fabric (spines only: a
    /// plan depends on the shape and fidelity map, never on what has
    /// materialized). `None` defaults the map to all-packet.
    fn plan(
        cfg: &FabricConfig,
        fidelity: Option<FidelityMap>,
        shards: u32,
    ) -> Result<FabricPartition, PartitionError> {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut builder = FabricBuilder::from_config(cfg).lazy(true);
        if let Some(map) = fidelity {
            builder = builder.fidelity(map);
        }
        FabricPartition::plan(&builder.build(&mut e), shards)
    }

    fn tor(pod: u16, tor: u16) -> SwitchRole {
        SwitchRole::Tor { pod, tor }
    }

    fn agg(pod: u16) -> SwitchRole {
        SwitchRole::Agg { pod }
    }

    fn spine(index: u16) -> SwitchRole {
        SwitchRole::Spine { index }
    }

    #[test]
    fn switches_walk_materialized_roles_in_canonical_order() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut f = FabricBuilder::from_config(&small_cfg())
            .lazy(true)
            .build(&mut e);
        let walk = |f: &Fabric| f.switches().map(|(role, _)| role).collect::<Vec<_>>();
        assert_eq!(walk(&f), vec![spine(0), spine(1)]);
        f.materialize_pod(&mut e, 1);
        assert_eq!(
            walk(&f),
            vec![tor(1, 0), tor(1, 1), tor(1, 2), agg(1), spine(0), spine(1)]
        );
        f.materialize_pod(&mut e, 0);
        assert_eq!(walk(&f), roles(f.shape()).collect::<Vec<_>>());
        for (role, id) in f.switches() {
            assert_eq!(f.switch(role), Some(id));
            assert_eq!(e.component::<Switch>(id).unwrap().role(), role);
        }
        assert_eq!(
            (tor(0, 1).label(), agg(12).label(), spine(3).label()),
            ("tor00.01".into(), "agg12".into(), "spine03".into())
        );
    }

    #[test]
    fn pod_partition_keeps_pods_whole() {
        let p = plan(&fig10_cfg(2), None, 2).unwrap();
        assert_eq!(p.shards(), 2);
        for t in 0..40 {
            assert_eq!(p.shard_of(tor(0, t)), 0);
            assert_eq!(p.shard_of(tor(1, t)), 1);
        }
        assert_eq!(p.shard_of(agg(0)), 0);
        assert_eq!(p.shard_of(agg(1)), 1);
        // Spines spread round-robin.
        assert_eq!(
            (0..4).map(|i| p.shard_of(spine(i))).collect::<Vec<_>>(),
            vec![0, 1, 0, 1]
        );
        // Only agg↔spine links are cut; with PFC on, the floor is the
        // agg link's propagation delay.
        assert_eq!(p.lookahead(), SimDuration::from_nanos(370));
    }

    #[test]
    fn tor_partition_beyond_pod_count() {
        let p = plan(&fig10_cfg(2), None, 8).unwrap();
        assert_eq!(p.shards(), 8);
        // 80 racks over 8 shards: perfectly balanced.
        let mut per_shard = vec![0u32; 8];
        for pod in 0..2 {
            for t in 0..40 {
                per_shard[p.shard_of(tor(pod, t)) as usize] += 1;
            }
        }
        assert!(per_shard.iter().all(|&n| n == 10), "{per_shard:?}");
        // The aggregation switch rides with its pod's first rack.
        assert_eq!(p.shard_of(agg(0)), p.shard_of(tor(0, 0)));
        assert_eq!(p.shard_of(agg(1)), p.shard_of(tor(1, 0)));
        // TOR↔agg links are now cut too, so the TOR link's propagation
        // delay becomes the floor.
        assert_eq!(p.lookahead(), SimDuration::from_nanos(100));
    }

    #[test]
    fn endpoints_ride_with_their_tor() {
        let p = plan(&fig10_cfg(2), None, 8).unwrap();
        for pod in 0..2 {
            for t in 0..40 {
                let addr = NodeAddr::new(pod, t, 5);
                assert_eq!(p.endpoint_shard(addr), p.shard_of(tor(pod, t)));
            }
        }
    }

    #[test]
    fn cut_metadata_matches_the_partition_geometry() {
        let cfg = fig10_cfg(2);
        // Pod granularity: only agg↔spine links are cut.
        let p = plan(&cfg, None, 2).unwrap();
        assert!(!p.is_cut(tor(0, 0)));
        assert!(p.is_cut(agg(0)) && p.is_cut(agg(1)));
        assert!(p.is_cut(spine(0)) && p.is_cut(spine(3)));
        // Cut members' excess is their own egress floor; non-cut TORs
        // pay one shard-local hop plus the lookahead for the remainder.
        assert_eq!(p.cut_excess(agg(0)), SimDuration::from_nanos(370));
        assert_eq!(p.cut_excess(spine(1)), SimDuration::from_nanos(485));
        assert_eq!(p.cut_excess(tor(0, 3)), SimDuration::from_nanos(100 + 370));
        // Endpoint excess chains through the access hop and the TOR.
        let addr = NodeAddr::new(1, 2, 0);
        assert_eq!(
            p.endpoint_cut_excess(addr, SimDuration::from_nanos(100)),
            SimDuration::from_nanos(100 + 100 + 370)
        );
        // Every excess respects the universal lookahead floor.
        for role in roles(cfg.shape) {
            assert!(p.cut_excess(role) >= p.lookahead(), "{role:?}");
        }
        // Rack granularity: some TOR↔agg links are cut too.
        let p8 = plan(&cfg, None, 8).unwrap();
        let cut_tors = roles(cfg.shape)
            .filter(|role| matches!(role, SwitchRole::Tor { .. }) && p8.is_cut(*role))
            .count();
        assert!(cut_tors > 0, "rack-granularity plans must cut some TORs");
        // One shard: nothing is cut, every excess is unbounded.
        let p1 = plan(&cfg, None, 1).unwrap();
        assert!(!p1.is_cut(agg(0)) && !p1.is_cut(spine(0)) && !p1.is_cut(tor(0, 0)));
        assert_eq!(p1.cut_excess(agg(0)), SimDuration::MAX);
        assert_eq!(
            p1.endpoint_cut_excess(NodeAddr::new(0, 0, 0), SimDuration::ZERO),
            SimDuration::MAX
        );
    }

    #[test]
    fn shard_count_clamps_to_rack_count() {
        let p = plan(&small_cfg(), None, 1_000).unwrap();
        assert_eq!(p.shards(), 6); // 2 pods × 3 racks
        let p = plan(&small_cfg(), None, 0).unwrap();
        assert_eq!(p.shards(), 1);
    }

    #[test]
    fn single_shard_needs_no_lookahead() {
        let p = plan(&fig10_cfg(2), None, 1).unwrap();
        assert_eq!(p.lookahead(), SimDuration::MAX);
        for t in 0..40 {
            assert_eq!(p.shard_of(tor(1, t)), 0);
        }
    }

    #[test]
    fn disabling_pfc_raises_the_lookahead_floor() {
        let mut cfg = fig10_cfg(2);
        cfg.agg.pfc = None;
        cfg.spine.lossless_mask = 0;
        let p = plan(&cfg, None, 2).unwrap();
        // Without PFC frames, the earliest cross-shard event is a
        // forwarded packet: propagation + pipeline base latency.
        assert_eq!(p.lookahead(), SimDuration::from_nanos(370 + 1_560));
    }

    #[test]
    fn pod_blocks_are_contiguous_and_balanced() {
        let p = plan(&fig10_cfg(6), None, 4).unwrap();
        let shards: Vec<u32> = (0..6).map(|pod| p.shard_of(agg(pod))).collect();
        assert!(shards.windows(2).all(|w| w[0] <= w[1]), "{shards:?}");
        let mut per_shard = vec![0u32; 4];
        for &s in &shards {
            per_shard[s as usize] += 1;
        }
        assert!(
            per_shard.iter().all(|&n| (1..=2).contains(&n)),
            "{per_shard:?}"
        );
        // Whole pods per shard: every rack rides with its pod's agg.
        for pod in 0..6 {
            for t in 0..40 {
                assert_eq!(p.shard_of(tor(pod, t)), p.shard_of(agg(pod)));
            }
        }
    }

    #[test]
    fn fidelity_map_island() {
        let m = FidelityMap::packet_island(10, 3);
        assert_eq!(m.pods(), 10);
        assert_eq!(m.packet_pod_count(), 3);
        assert!(!m.is_all_packet());
        assert_eq!(m.packet_pods().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(m.flow_pods().count(), 7);
        assert!(FidelityMap::all_packet(4).is_all_packet());
    }

    /// `shard_of` and `cut_excess` (ns, `inf` when unbounded) of every
    /// switch position in canonical order, run-length encoded as
    /// `count*shard@excess`.
    fn shard_map(p: &FabricPartition) -> String {
        let mut runs: Vec<(usize, String)> = Vec::new();
        for role in roles(p.shape) {
            let excess = match p.cut_excess(role) {
                SimDuration::MAX => "inf".to_string(),
                bounded => bounded.as_nanos().to_string(),
            };
            let entry = format!("{}@{excess}", p.shard_of(role));
            match runs.last_mut() {
                Some((count, last)) if *last == entry => *count += 1,
                _ => runs.push((1, entry)),
            }
        }
        let runs: Vec<String> = runs.iter().map(|(n, e)| format!("{n}*{e}")).collect();
        runs.join(" ")
    }

    /// Shard maps captured from the two planners this one replaced
    /// (`plan` + `plan_hybrid`, PR 13) on the paper fabric: pod
    /// granularity, rack granularity, and a packet island. Each row is
    /// `((pods, packet island, shards, lookahead ns), TORs aggs spines)`.
    #[test]
    fn plans_reproduce_the_golden_shard_maps() {
        let golden = [
            ((2, None, 1, u64::MAX), "86*0@inf"),
            (
                (2, None, 2, 370),
                "40*0@470 40*1@470 1*0@370 1*1@370 1*0@485 1*1@485 1*0@485 1*1@485",
            ),
            (
                (2, None, 4, 100),
                "20*0@200 20*1@100 20*2@200 20*3@100 1*0@370 1*2@370 \
                 1*0@485 1*1@485 1*2@485 1*3@485",
            ),
            (
                (2, None, 8, 100),
                "10*0@200 10*1@100 10*2@100 10*3@100 10*4@200 10*5@100 10*6@100 10*7@100 \
                 1*0@370 1*4@370 1*0@485 1*1@485 1*2@485 1*3@485",
            ),
            (
                (4, None, 2, 370),
                "80*0@470 80*1@470 2*0@370 2*1@370 1*0@485 1*1@485 1*0@485 1*1@485",
            ),
            (
                (4, None, 4, 370),
                "40*0@470 40*1@470 40*2@470 40*3@470 1*0@370 1*1@370 1*2@370 1*3@370 \
                 1*0@485 1*1@485 1*2@485 1*3@485",
            ),
            (
                (4, Some(2), 2, 370),
                "40*0@470 40*1@470 80*0@470 1*0@370 1*1@370 2*0@370 \
                 1*0@485 1*1@485 1*0@485 1*1@485",
            ),
        ];
        for ((pods, island, shards, lookahead), map) in golden {
            let fidelity = island.map(|n| FidelityMap::packet_island(pods, n));
            let p = plan(&fig10_cfg(pods), fidelity, shards).unwrap();
            let label = format!("{pods} pods, island {island:?}, {shards} shards");
            assert_eq!(p.shards(), shards, "{label}");
            assert_eq!(p.lookahead().as_nanos(), lookahead, "{label}");
            assert_eq!(shard_map(&p), map, "{label}");
        }
    }

    #[test]
    fn explicit_all_packet_map_plans_like_the_defaulted_map() {
        let cfg = fig10_cfg(2);
        for shards in [1, 2, 8] {
            let explicit = plan(&cfg, Some(FidelityMap::all_packet(2)), shards).unwrap();
            let defaulted = plan(&cfg, None, shards).unwrap();
            assert_eq!(explicit.shards(), defaulted.shards());
            assert_eq!(explicit.lookahead(), defaulted.lookahead());
            assert_eq!(shard_map(&explicit), shard_map(&defaulted));
        }
    }

    #[test]
    fn hybrid_plan_spreads_packet_pods_only() {
        let map = FidelityMap::packet_island(8, 4);
        let p = plan(&fig10_cfg(8), Some(map), 2).unwrap();
        assert_eq!(p.shards(), 2);
        // Packet pods 0..4 split into two contiguous blocks.
        assert_eq!(p.shard_of(agg(0)), 0);
        assert_eq!(p.shard_of(agg(1)), 0);
        assert_eq!(p.shard_of(agg(2)), 1);
        assert_eq!(p.shard_of(agg(3)), 1);
        // Flow pods have no switches; their (unused) entries sit on shard 0.
        for pod in 4..8 {
            assert_eq!(p.shard_of(agg(pod)), 0);
        }
        assert_eq!(p.lookahead(), SimDuration::from_nanos(370));
    }

    #[test]
    fn hybrid_plan_rejects_bad_combinations() {
        let map = FidelityMap::packet_island(8, 2);
        match plan(&fig10_cfg(8), Some(map), 4) {
            Err(PartitionError::ShardsExceedPacketPods {
                shards,
                packet_pods,
            }) => {
                assert_eq!((shards, packet_pods), (4, 2));
            }
            other => panic!("expected ShardsExceedPacketPods, got {other:?}"),
        }
    }

    /// A map covering another pod count never reaches the planner: the
    /// fabric it would be planned over cannot be built.
    #[test]
    #[should_panic(expected = "fidelity map covers 3 pods but the shape has 8")]
    fn mismatched_fidelity_map_is_rejected_at_build() {
        let _ = plan(&fig10_cfg(8), Some(FidelityMap::all_packet(3)), 1);
    }
}
