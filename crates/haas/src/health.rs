//! The Failure Monitor: the health loop closing the paper's reliability
//! story (Section VII). Clients and peer shells that observe a dead LTL
//! connection report the node here; the monitor drains it from the
//! [`ResourceManager`] pool, asks the owning [`ServiceManager`] for a
//! replacement, power-cycles nodes whose [`FpgaManager`] shows a bad
//! image (golden-image rollback), and optionally returns repaired nodes
//! to the pool after a fixed repair time.
//!
//! The monitor is a simulation component so detection latency, remap
//! time and repair time are measurable on the same clock as the faults
//! themselves.

use std::collections::BTreeMap;

use dcnet::{Msg, NodeAddr};
use dcsim::{Component, Context, SimDuration, SimTime};
use fpga::Image;

use crate::fm::{FpgaManager, NodeStatus};
use crate::rm::ResourceManager;
use crate::sm::ServiceManager;

/// "Node `addr` stopped answering" — sent to the monitor (wrapped in
/// [`Msg::custom`]) by whoever observed the failure, typically a client
/// whose LTL connection to the node was declared dead.
#[derive(Debug, Clone, Copy)]
pub struct NodeDownReport {
    /// The unresponsive node.
    pub addr: NodeAddr,
}

/// "A new application image was pushed to node `addr`" — bookkeeping for
/// deployments, so the monitor's [`FpgaManager`] view matches the fabric.
/// A bad image (bridge disabled) leaves the node [`NodeStatus::Unreachable`]
/// until a down-report triggers the golden-image power cycle.
#[derive(Debug, Clone)]
pub struct DeployImage {
    /// Target node.
    pub addr: NodeAddr,
    /// The image that was loaded.
    pub image: Image,
}

/// One handled failure: what was detected when, and how it was resolved.
#[derive(Debug, Clone)]
pub struct RecoveryRecord {
    /// The failed node.
    pub addr: NodeAddr,
    /// When the report reached the monitor.
    pub detected_at: SimTime,
    /// Service whose lease was disrupted (`None` for unleased nodes).
    pub service: Option<String>,
    /// Replacement endpoint granted to that service, if the pool had one.
    pub replacement: Option<NodeAddr>,
    /// Whether the node needed a management-port power cycle back to the
    /// golden image.
    pub power_cycled: bool,
}

/// The health loop: RM + SMs + per-node FMs behind a single component.
pub struct FailureMonitor {
    rm: ResourceManager,
    services: Vec<ServiceManager>,
    fms: BTreeMap<NodeAddr, FpgaManager>,
    repair_after: Option<SimDuration>,
    repair_queue: Vec<NodeAddr>,
    records: Vec<RecoveryRecord>,
    duplicate_reports: u64,
    power_cycles: u64,
    repairs: u64,
}

impl FailureMonitor {
    /// Creates a monitor. With `repair_after` set, failed nodes return to
    /// the pool that long after detection; with `None` they stay out for
    /// the rest of the run.
    pub fn new(rm: ResourceManager, repair_after: Option<SimDuration>) -> FailureMonitor {
        FailureMonitor {
            rm,
            services: Vec::new(),
            fms: BTreeMap::new(),
            repair_after,
            repair_queue: Vec::new(),
            records: Vec::new(),
            duplicate_reports: 0,
            power_cycles: 0,
            repairs: 0,
        }
    }

    /// Adds a service whose leases this monitor repairs on failure.
    pub fn add_service(&mut self, sm: ServiceManager) {
        self.services.push(sm);
    }

    /// Tracks a per-node FPGA Manager (for image/power-cycle bookkeeping).
    pub fn add_fm(&mut self, fm: FpgaManager) {
        self.fms.insert(fm.addr(), fm);
    }

    /// The resource pool.
    pub fn rm(&self) -> &ResourceManager {
        &self.rm
    }

    /// The managed services.
    pub fn services(&self) -> &[ServiceManager] {
        &self.services
    }

    /// A node's FPGA Manager, if tracked.
    pub fn fm(&self, addr: NodeAddr) -> Option<&FpgaManager> {
        self.fms.get(&addr)
    }

    /// Every failure handled so far, in detection order.
    pub fn records(&self) -> &[RecoveryRecord] {
        &self.records
    }

    /// Reports for nodes already drained (deduplicated away).
    pub fn duplicate_reports(&self) -> u64 {
        self.duplicate_reports
    }

    /// Golden-image power cycles performed.
    pub fn power_cycles(&self) -> u64 {
        self.power_cycles
    }

    /// Nodes returned to the pool after their repair time.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    fn handle_down(&mut self, addr: NodeAddr, ctx: &mut Context<'_, Msg>) {
        if matches!(self.rm.state(addr), Some(crate::rm::FpgaState::Failed)) {
            // Several observers race to report the same dead node; the
            // first one already drained it.
            self.duplicate_reports += 1;
            return;
        }
        let power_cycled = match self.fms.get_mut(&addr) {
            Some(fm) if fm.status() == NodeStatus::Unreachable => {
                // Bad image took the bridge down: roll back to golden via
                // the management port, like the paper's FM does.
                fm.power_cycle();
                self.power_cycles += 1;
                true
            }
            _ => false,
        };
        let lease = self.rm.mark_failed(addr);
        let mut service = None;
        let mut replacement = None;
        if let Some(lease) = lease {
            for sm in &mut self.services {
                match sm.handle_failure(&mut self.rm, lease) {
                    Ok(Some(new_addr)) => {
                        service = Some(sm.name().to_string());
                        replacement = Some(new_addr);
                        break;
                    }
                    Ok(None) => continue, // lease belongs to another service
                    Err(_) => {
                        // Pool exhausted: the service runs degraded.
                        service = Some(sm.name().to_string());
                        break;
                    }
                }
            }
        }
        self.records.push(RecoveryRecord {
            addr,
            detected_at: ctx.now(),
            service,
            replacement,
            power_cycled,
        });
        if let Some(repair) = self.repair_after {
            self.repair_queue.push(addr);
            ctx.timer_after(repair, self.repair_queue.len() as u64 - 1);
        }
    }

    fn handle_deploy(&mut self, addr: NodeAddr, image: Image) {
        if let Some(fm) = self.fms.get_mut(&addr) {
            // The load time is simulated by the shell's reconfiguration
            // window; here we track the resulting configuration state.
            fm.configure(image);
            fm.configuration_done();
        }
    }
}

impl Component<Msg> for FailureMonitor {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg.downcast::<NodeDownReport>() {
            Ok(report) => self.handle_down(report.addr, ctx),
            Err(msg) => {
                if let Ok(deploy) = msg.downcast::<DeployImage>() {
                    self.handle_deploy(deploy.addr, deploy.image);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_, Msg>) {
        let addr = self.repair_queue[token as usize];
        self.rm.repair(addr);
        self.repairs += 1;
    }
}

impl core::fmt::Debug for FailureMonitor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FailureMonitor")
            .field("services", &self.services.len())
            .field("records", &self.records.len())
            .field("power_cycles", &self.power_cycles)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rm::Constraints;
    use dcsim::{Engine, SimTime};

    fn monitor_with_service(nodes: u16, grown: usize) -> FailureMonitor {
        let mut rm = ResourceManager::new();
        for h in 0..nodes {
            rm.register(NodeAddr::new(0, 0, h));
        }
        let mut sm = ServiceManager::new("svc");
        sm.grow(&mut rm, grown, &Constraints::default()).unwrap();
        let mut mon = FailureMonitor::new(rm, None);
        mon.add_service(sm);
        mon
    }

    #[test]
    fn down_report_drains_and_remaps() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut mon = monitor_with_service(4, 2);
        let victim = mon.services()[0].endpoints()[0];
        for h in 0..4 {
            mon.add_fm(FpgaManager::new(NodeAddr::new(0, 0, h)));
        }
        let mon_id = e.add_component(mon);
        e.schedule(
            SimTime::from_micros(5),
            mon_id,
            Msg::custom(NodeDownReport { addr: victim }),
        );
        e.run_to_idle();
        let mon = e.component::<FailureMonitor>(mon_id).unwrap();
        assert_eq!(mon.records().len(), 1);
        let rec = &mon.records()[0];
        assert_eq!(rec.addr, victim);
        assert_eq!(rec.detected_at, SimTime::from_micros(5));
        assert_eq!(rec.service.as_deref(), Some("svc"));
        assert!(rec.replacement.is_some());
        assert!(!rec.power_cycled);
        assert_eq!(mon.rm().failed(), 1);
        assert!(!mon.services()[0].endpoints().contains(&victim));
    }

    #[test]
    fn duplicate_reports_are_deduplicated() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mon = monitor_with_service(4, 2);
        let victim = mon.services()[0].endpoints()[0];
        let mon_id = e.add_component(mon);
        for i in 0..3u64 {
            e.schedule(
                SimTime::from_micros(i),
                mon_id,
                Msg::custom(NodeDownReport { addr: victim }),
            );
        }
        e.run_to_idle();
        let mon = e.component::<FailureMonitor>(mon_id).unwrap();
        assert_eq!(mon.records().len(), 1);
        assert_eq!(mon.duplicate_reports(), 2);
        assert_eq!(mon.services()[0].replacements(), 1);
    }

    #[test]
    fn bad_image_triggers_golden_rollback() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut mon = monitor_with_service(4, 2);
        let victim = mon.services()[0].endpoints()[0];
        mon.add_fm(FpgaManager::new(victim));
        let mon_id = e.add_component(mon);
        let mut bad = Image::application("buggy-v2", "rank");
        bad.features.bridge = false;
        e.schedule(
            SimTime::from_micros(1),
            mon_id,
            Msg::custom(DeployImage {
                addr: victim,
                image: bad,
            }),
        );
        e.schedule(
            SimTime::from_micros(10),
            mon_id,
            Msg::custom(NodeDownReport { addr: victim }),
        );
        e.run_to_idle();
        let mon = e.component::<FailureMonitor>(mon_id).unwrap();
        assert_eq!(mon.power_cycles(), 1);
        assert!(mon.records()[0].power_cycled);
        let fm = mon.fm(victim).unwrap();
        assert_eq!(fm.status(), NodeStatus::Healthy);
        assert_eq!(fm.image_name(), "golden");
    }

    #[test]
    fn repair_returns_node_to_pool() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mut rm = ResourceManager::new();
        for h in 0..3 {
            rm.register(NodeAddr::new(0, 0, h));
        }
        let mut sm = ServiceManager::new("svc");
        sm.grow(&mut rm, 2, &Constraints::default()).unwrap();
        let mut mon = FailureMonitor::new(rm, Some(SimDuration::from_millis(5)));
        let victim = sm.endpoints()[0];
        mon.add_service(sm);
        let mon_id = e.add_component(mon);
        e.schedule(
            SimTime::ZERO,
            mon_id,
            Msg::custom(NodeDownReport { addr: victim }),
        );
        e.run_until(SimTime::from_millis(1));
        assert_eq!(
            e.component::<FailureMonitor>(mon_id).unwrap().rm().failed(),
            1
        );
        e.run_to_idle();
        let mon = e.component::<FailureMonitor>(mon_id).unwrap();
        assert_eq!(mon.rm().failed(), 0);
        assert_eq!(mon.repairs(), 1);
        assert_eq!(mon.rm().unallocated(), 1, "victim is allocatable again");
    }

    #[test]
    fn unleased_node_failure_records_no_service() {
        let mut e: Engine<Msg> = Engine::new(1);
        let mon = monitor_with_service(4, 2);
        let spare = NodeAddr::new(0, 0, 3);
        let mon_id = e.add_component(mon);
        e.schedule(
            SimTime::ZERO,
            mon_id,
            Msg::custom(NodeDownReport { addr: spare }),
        );
        e.run_to_idle();
        let mon = e.component::<FailureMonitor>(mon_id).unwrap();
        assert_eq!(mon.records().len(), 1);
        assert!(mon.records()[0].service.is_none());
        assert!(mon.records()[0].replacement.is_none());
    }
}
