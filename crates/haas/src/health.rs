//! The Failure Monitor: the health loop closing the paper's reliability
//! story (Section VII). Clients and peer shells that observe a dead LTL
//! connection report the node here; the monitor takes the board out of
//! the whole-board pool, asks the owning [`ServiceManager`] for a
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

use crate::elastic::{Decision, ElasticScheduler};
use crate::fm::{FpgaManager, NodeStatus};
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

/// The health loop: pool + SMs + per-node FMs behind a single component.
pub struct FailureMonitor {
    pool: ElasticScheduler,
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
    /// Creates a monitor over a whole-board pool
    /// ([`whole_board_pool`](crate::whole_board_pool)). With
    /// `repair_after` set, failed nodes return to the pool that long after
    /// detection; with `None` they stay out for the rest of the run.
    pub fn new(pool: ElasticScheduler, repair_after: Option<SimDuration>) -> FailureMonitor {
        FailureMonitor {
            pool,
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
    pub fn pool(&self) -> &ElasticScheduler {
        &self.pool
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
        match self.pool.board(addr) {
            Some((true, _)) => {}
            // Several observers race to report the same dead node; the
            // first one already drained it.
            Some((false, _)) => return self.duplicate_reports += 1,
            // A board the pool never registered is none of its business.
            None => return,
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
        let now = ctx.now();
        let _ = self.pool.board_down(now, addr);
        // A whole board holds at most one lease.
        let lease = match self.pool.last_decisions() {
            [.., Decision::BoardDown { lost, .. }] => lost.first().copied(),
            _ => None,
        };
        let mut service = None;
        let mut replacement = None;
        if let Some(lease) = lease {
            for sm in &mut self.services {
                match sm.handle_failure(&mut self.pool, now, lease) {
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
            detected_at: now,
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

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Msg>) {
        let addr = self.repair_queue[token as usize];
        let _ = self.pool.board_up(ctx.now(), addr);
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
    use crate::sm::whole_board_pool;
    use dcsim::{Engine, SimTime};
    use shell::tenant::TenantId;

    fn pool_and_service(nodes: u16, grown: usize) -> (ElasticScheduler, ServiceManager) {
        let mut pool = whole_board_pool((0..nodes).map(|h| NodeAddr::new(0, 0, h)));
        let mut sm = ServiceManager::new("svc", TenantId(1));
        sm.grow(&mut pool, SimTime::ZERO, grown).unwrap();
        (pool, sm)
    }

    fn monitor_with_service(nodes: u16, grown: usize) -> FailureMonitor {
        let (pool, sm) = pool_and_service(nodes, grown);
        let mut mon = FailureMonitor::new(pool, None);
        mon.add_service(sm);
        mon
    }

    /// Boards of `mon`'s pool that are down.
    fn down(mon: &FailureMonitor, nodes: u16) -> usize {
        (0..nodes)
            .filter(|&h| mon.pool().board(NodeAddr::new(0, 0, h)) == Some((false, None)))
            .count()
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
        assert_eq!(down(mon, 4), 1);
        assert_eq!(rec.replacement, Some(NodeAddr::new(0, 0, 2)));
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
        bad.bridge = false;
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
        let (pool, sm) = pool_and_service(3, 2);
        let mut mon = FailureMonitor::new(pool, Some(SimDuration::from_millis(5)));
        let victim = sm.endpoints()[0];
        mon.add_service(sm);
        let mon_id = e.add_component(mon);
        e.schedule(
            SimTime::ZERO,
            mon_id,
            Msg::custom(NodeDownReport { addr: victim }),
        );
        e.run_until(SimTime::from_millis(1));
        assert_eq!(down(e.component::<FailureMonitor>(mon_id).unwrap(), 3), 1);
        e.run_to_idle();
        let mon = e.component::<FailureMonitor>(mon_id).unwrap();
        assert_eq!(down(mon, 3), 0);
        assert_eq!(mon.repairs(), 1);
        assert_eq!(
            mon.pool().board(victim),
            Some((true, None)),
            "victim is allocatable again"
        );
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
