//! # catapult — the Configurable Cloud
//!
//! Top-level crate of this reproduction of *"A Cloud-Scale Acceleration
//! Architecture"* (MICRO 2016): an acceleration plane of bump-in-the-wire
//! FPGAs sharing the datacenter network with the servers, usable as local
//! compute accelerators (PCIe), network accelerators (the bridge tap), and
//! a global pool of remote accelerators (LTL + HaaS).
//!
//! The crate assembles the substrate crates into runnable clusters and
//! experiments:
//!
//! * [`Cluster`] — a simulated datacenter: three-tier fabric plus a
//!   [`shell::Shell`] per populated host slot;
//! * [`calib`] — the switch/link constants that land LTL round trips on
//!   the paper's Figure 10 measurements;
//! * [`experiments`] — one driver per paper table and figure.
//!
//! # Examples
//!
//! Measure a same-TOR LTL round trip:
//!
//! ```
//! use catapult::{probe::schedule_probes, ClusterBuilder};
//! use dcnet::NodeAddr;
//! use dcsim::{SimDuration, SimTime};
//!
//! let mut cluster = ClusterBuilder::paper(7, 1).build();
//! let a = NodeAddr::new(0, 0, 0);
//! let b = NodeAddr::new(0, 0, 1);
//! cluster.add_shell(a);
//! cluster.add_shell(b);
//! let (a_send, _, _, _) = cluster.connect_pair(a, b);
//! schedule_probes(
//!     &mut cluster,
//!     a,
//!     a_send,
//!     SimTime::ZERO,
//!     SimDuration::from_micros(100),
//!     50,
//!     32,
//! );
//! cluster.run_to_idle();
//! let rtt = cluster.shell(a).ltl().rtts().percentile(50.0).unwrap();
//! assert!(rtt > 2_000 && rtt < 4_000, "same-TOR RTT ~2.88us, got {rtt}ns");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod calib;
pub mod chaos;
mod cluster;
pub mod elastic;
pub mod experiments;
pub mod probe;
pub mod sweep;
pub mod workload;

pub use cluster::{Cluster, ClusterBuilder};
pub use telemetry;

/// One-stop imports for experiment drivers and binaries.
///
/// Pulls the cluster-assembly types, the experiment modules and the
/// telemetry registry surface into scope with a single
/// `use catapult::prelude::*;`.
pub mod prelude {
    pub use crate::calib::{self, Tier};
    pub use crate::chaos::{ChaosConfig, ChaosReport, ChaosRig, Preset};
    pub use crate::elastic::{ElasticRunReport, ElasticTraceConfig, MixWeights};
    pub use crate::experiments;
    pub use crate::probe::schedule_probes;
    pub use crate::workload::{FleetLoadGen, FleetWorkloadConfig};
    pub use crate::{Cluster, ClusterBuilder};
    pub use dcnet::{
        FabricBuilder, FabricConfig, FabricShape, Fidelity, FidelityMap, FlowBatch, FlowSim,
        FlowSimCmd, FlowSimConfig, Msg, NodeAddr,
    };
    pub use dcsim::{
        Component, ComponentId, Context, Engine, ShardSyncStats, SimDuration, SimTime, WindowPolicy,
    };
    pub use shell::ltl::LtlConfig;
    pub use shell::{Shell, ShellConfig};
    pub use telemetry::{MetricSource, MetricsSnapshot, Tracer};
}
