//! Fabric calibration: switch/link constants chosen so simulated LTL
//! round trips land on the paper's measured values (Figure 10):
//!
//! | tier | reachable hosts | avg RTT | p99.9 RTT |
//! |------|-----------------|---------|-----------|
//! | L0   | 24              | 2.88 µs | 2.9 µs    |
//! | L1   | 960             | 7.72 µs | 8.24 µs   |
//! | L2   | ~250,000        | 18.71 µs| 22.38 µs  |
//!
//! The decomposition is physical: per-tier switch pipeline latency, link
//! propagation (longer cables up the hierarchy), serialization at 40 Gb/s
//! and the shell's LTL tx/rx pipelines. Lognormal jitter at L1/L2 stands
//! in for cross-traffic through shared switches, which we do not simulate
//! packet-by-packet at fleet scale; its parameters set the 99.9th
//! percentile. The jitter never reorders: each egress port is FIFO, so a
//! frame whose draw would pass its predecessor arrives just behind it
//! instead. Figure 10's probes are one frame each and spaced, so they
//! keep their own draws (only an ACK sent right behind a CNP can wait);
//! multi-frame messages arrive in order.

use dcnet::{FabricConfig, FabricShape, Jitter, LinkParams, SwitchConfig};
use dcsim::SimDuration;
use shell::ShellConfig;

/// The three datacenter tiers of the paper's network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Same TOR switch (24 hosts).
    L0,
    /// Same pod (960 hosts).
    L1,
    /// Cross-pod (up to ~250k hosts).
    L2,
}

/// Paper-calibrated shell configuration.
pub fn shell_config() -> ShellConfig {
    ShellConfig {
        ltl_tx_latency: SimDuration::from_nanos(460),
        ltl_rx_latency: SimDuration::from_nanos(450),
        tor_link: LinkParams::gbe40(SimDuration::from_nanos(100)),
        nic_link: LinkParams::gbe40(SimDuration::from_nanos(100)),
        ..Default::default()
    }
}

/// Paper-calibrated fabric configuration for the given shape.
pub fn fabric_config(shape: FabricShape) -> FabricConfig {
    FabricConfig {
        shape,
        tor: SwitchConfig::default()
            .with_base_latency(SimDuration::from_nanos(280))
            .with_jitter(Jitter {
                median_ns: 8.0,
                sigma: 0.5,
            })
            .with_link(LinkParams::gbe40(SimDuration::from_nanos(100))),
        agg: SwitchConfig::default()
            .with_base_latency(SimDuration::from_nanos(1_560))
            .with_jitter(Jitter {
                median_ns: 45.0,
                sigma: 0.85,
            })
            .with_link(LinkParams::gbe40(SimDuration::from_nanos(370))),
        spine: SwitchConfig::default()
            .with_base_latency(SimDuration::from_nanos(2_610))
            .with_jitter(Jitter {
                median_ns: 260.0,
                sigma: 0.88,
            })
            .with_link(LinkParams::gbe40(SimDuration::from_nanos(485))),
    }
}

/// A fabric shape holding `pods` pods at production rack dimensions
/// (24 hosts/TOR, 40 TORs/pod).
pub fn paper_shape(pods: u16) -> FabricShape {
    FabricShape {
        hosts_per_tor: 24,
        tors_per_pod: 40,
        pods,
        spines: 4,
    }
}

/// Reachable-host count at each tier (the x-axis of Figure 10).
pub fn reachable_hosts(tier: Tier, shape: FabricShape) -> usize {
    match tier {
        Tier::L0 => shape.hosts_per_tor as usize,
        Tier::L1 => shape.hosts_per_pod(),
        Tier::L2 => shape.total_hosts(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_dimensions() {
        let s = paper_shape(260);
        assert_eq!(s.hosts_per_pod(), 960);
        assert_eq!(s.total_hosts(), 249_600);
        assert_eq!(reachable_hosts(Tier::L0, s), 24);
        assert_eq!(reachable_hosts(Tier::L1, s), 960);
        assert!(reachable_hosts(Tier::L2, s) > 240_000);
    }

    #[test]
    fn latency_grows_up_the_hierarchy() {
        let cfg = fabric_config(paper_shape(2));
        assert!(cfg.tor.base_latency < cfg.agg.base_latency);
        assert!(cfg.agg.base_latency < cfg.spine.base_latency);
        assert!(cfg.tor.link.propagation < cfg.spine.link.propagation);
    }
}
