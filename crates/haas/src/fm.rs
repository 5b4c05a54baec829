//! The per-node FPGA Manager: "An FPGA Manager (FM) runs on each node to
//! provide configuration and status monitoring for the system."

use dcnet::NodeAddr;
use dcsim::SimDuration;
use fpga::{Image, FULL_RECONFIG_TIME, PARTIAL_RECONFIG_TIME};

/// Health of a node as reported by its FM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Configured and forwarding; reachable over the network.
    Healthy,
    /// Mid-reconfiguration.
    Configuring,
    /// Bridge down (bad image); needs a management-port power cycle.
    Unreachable,
}

/// Per-node configuration and status agent.
#[derive(Debug)]
pub struct FpgaManager {
    addr: NodeAddr,
    /// The running image, or the incoming one while `loading`.
    image: Image,
    loading: bool,
    reconfigs: u64,
}

impl FpgaManager {
    /// Creates the manager for a freshly powered node (golden image).
    pub fn new(addr: NodeAddr) -> FpgaManager {
        FpgaManager {
            addr,
            image: Image::golden(),
            loading: false,
            reconfigs: 0,
        }
    }

    /// The node this FM manages.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// Current status: `Configuring` during any load, then `Healthy` or
    /// `Unreachable` by whether the running image has a bridge.
    pub fn status(&self) -> NodeStatus {
        if self.loading {
            NodeStatus::Configuring
        } else if self.image.bridge {
            NodeStatus::Healthy
        } else {
            NodeStatus::Unreachable
        }
    }

    /// The running (or loading) image name.
    pub fn image_name(&self) -> &str {
        self.image.name
    }

    /// The role compiled into the running (or loading) image.
    pub fn role_name(&self) -> &str {
        self.image.role
    }

    /// Loads a service image by full reconfiguration; the caller (Service
    /// Manager) waits out the returned load time before routing traffic.
    pub fn configure(&mut self, image: Image) -> SimDuration {
        self.reconfigs += 1;
        self.image = image;
        self.loading = true;
        FULL_RECONFIG_TIME
    }

    /// Swaps just the role via partial reconfiguration (bridge stays up).
    pub fn configure_role(&mut self, role: &'static str) -> SimDuration {
        self.reconfigs += 1;
        self.image.role = role;
        self.loading = true;
        PARTIAL_RECONFIG_TIME
    }

    /// Completes an in-flight (re)configuration.
    ///
    /// # Panics
    ///
    /// Panics if no reconfiguration is in flight.
    pub fn configuration_done(&mut self) {
        assert!(self.loading, "no reconfiguration in flight");
        self.loading = false;
    }

    /// Management-port power cycle: always recovers to the golden image,
    /// abandoning any load in flight.
    pub fn power_cycle(&mut self) {
        self.image = Image::golden();
        self.loading = false;
    }

    /// Reconfigurations performed.
    pub fn reconfigs(&self) -> u64 {
        self.reconfigs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_node_is_healthy_on_golden() {
        let fm = FpgaManager::new(NodeAddr::new(0, 0, 0));
        assert_eq!(fm.status(), NodeStatus::Healthy);
        assert_eq!(fm.image_name(), "golden");
    }

    #[test]
    fn configure_cycle() {
        let mut fm = FpgaManager::new(NodeAddr::new(0, 0, 0));
        let t = fm.configure(Image::application("rank-v3", "ffu+dpf"));
        assert!(t > SimDuration::ZERO);
        assert_eq!(fm.status(), NodeStatus::Configuring);
        fm.configuration_done();
        assert_eq!(fm.status(), NodeStatus::Healthy);
        assert_eq!(fm.image_name(), "rank-v3");
        assert_eq!(fm.reconfigs(), 1);
    }

    #[test]
    fn role_swap_keeps_node_reachable() {
        let mut fm = FpgaManager::new(NodeAddr::new(0, 0, 0));
        fm.configure(Image::application("multi", "ranking"));
        fm.configuration_done();
        fm.configure_role("crypto");
        // Partial reconfig: FM reports every load as Configuring, and the
        // node is Healthy again as soon as the role is in.
        assert_eq!(fm.status(), NodeStatus::Configuring);
        fm.configuration_done();
        assert_eq!(fm.status(), NodeStatus::Healthy);
    }

    #[test]
    fn full_reconfig_takes_full_time_and_reports_incoming_image() {
        let mut fm = FpgaManager::new(NodeAddr::new(0, 0, 0));
        let t = fm.configure(Image::application("rank-v3", "ffu+dpf"));
        assert_eq!(t, FULL_RECONFIG_TIME);
        assert_eq!(fm.status(), NodeStatus::Configuring);
        // The names report the incoming image during the load.
        assert_eq!(fm.image_name(), "rank-v3");
        assert_eq!(fm.role_name(), "ffu+dpf");
        fm.configuration_done();
        assert_eq!(fm.status(), NodeStatus::Healthy);
        assert_eq!(fm.role_name(), "ffu+dpf");
    }

    #[test]
    fn partial_reconfig_takes_partial_time_and_keeps_image_name() {
        let mut fm = FpgaManager::new(NodeAddr::new(0, 0, 0));
        fm.configure(Image::application("multi", "ranking"));
        fm.configuration_done();
        let t = fm.configure_role("crypto");
        assert_eq!(t, PARTIAL_RECONFIG_TIME);
        assert_eq!(fm.role_name(), "crypto");
        fm.configuration_done();
        assert_eq!(fm.status(), NodeStatus::Healthy);
        assert_eq!(fm.image_name(), "multi");
        assert_eq!(fm.role_name(), "crypto");
        assert_eq!(fm.reconfigs(), 2);
    }

    #[test]
    fn bad_image_then_power_cycle_recovers() {
        let mut fm = FpgaManager::new(NodeAddr::new(0, 0, 0));
        let mut bad = Image::application("buggy", "oops");
        bad.bridge = false;
        fm.configure(bad);
        fm.configuration_done();
        assert_eq!(fm.status(), NodeStatus::Unreachable);
        fm.power_cycle();
        assert_eq!(fm.status(), NodeStatus::Healthy);
        assert_eq!(fm.image_name(), "golden");
    }

    #[test]
    fn power_cycle_mid_load_ends_healthy_on_golden() {
        let mut fm = FpgaManager::new(NodeAddr::new(0, 0, 0));
        fm.configure(Image::application("rank-v3", "ffu+dpf"));
        fm.power_cycle();
        assert_eq!(fm.status(), NodeStatus::Healthy);
        assert_eq!(fm.image_name(), "golden");
        assert_eq!(fm.role_name(), "bypass");
    }

    #[test]
    #[should_panic(expected = "no reconfiguration in flight")]
    fn configuration_done_without_a_load_panics() {
        let mut fm = FpgaManager::new(NodeAddr::new(0, 0, 0));
        fm.configuration_done();
    }
}
