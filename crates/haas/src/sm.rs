//! Service Managers: per-service controllers that assemble leased FPGAs
//! into hardware Components, balance client load across them, and handle
//! failures by requesting replacements from the pool.
//!
//! The pool is the paper's Resource Manager: an [`ElasticScheduler`]
//! whose boards each hold one whole-board region ([`whole_board_pool`]).
//! A Service Manager's requests are guaranteed and non-preemptible and
//! the pool never defragments, so a lease stays on its board until it is
//! released or the board goes down, and best fit over equal regions
//! walks the boards in registration order.

use dcnet::NodeAddr;
use dcsim::{SimDuration, SimTime};
use fpga::{PrBoard, STRATIX_V_D5};
use shell::tenant::{TenantCaps, TenantId};

use crate::elastic::{
    Decision, ElasticConfig, ElasticError, ElasticScheduler, RegionLease, TenantClass,
};

/// The whole-board carve: one region spanning the standard carve's role
/// area (the paper's one-role-per-board allocation).
pub fn whole_board_alms() -> Vec<u32> {
    let role_area = PrBoard::standard(STRATIX_V_D5).map(|b| b.region_alms().iter().sum());
    vec![role_area.unwrap_or_default()]
}

/// A pool of whole boards, in registration order (a repeated address is
/// registered once). Defragmentation is off, so no lease ever migrates.
pub fn whole_board_pool(boards: impl IntoIterator<Item = NodeAddr>) -> ElasticScheduler {
    let mut pool = ElasticScheduler::new(ElasticConfig {
        defrag_period: SimDuration::ZERO,
        ..ElasticConfig::default()
    });
    let carve = whole_board_alms();
    for addr in boards {
        let _ = pool.add_board(addr, &carve);
    }
    pool
}

/// An instance of a hardware service: one or more leased FPGAs (the
/// paper's "Component").
#[derive(Debug, Clone)]
pub struct HwComponent {
    /// Leases backing this component.
    pub leases: Vec<RegionLease>,
}

impl HwComponent {
    /// The FPGAs in this component.
    pub fn addrs(&self) -> impl Iterator<Item = NodeAddr> + '_ {
        self.leases.iter().map(|l| l.at.board)
    }
}

/// A per-service manager holding components and load-balancing clients
/// across them.
#[derive(Debug)]
pub struct ServiceManager {
    name: String,
    tenant: TenantId,
    board_alms: u32,
    components: Vec<HwComponent>,
    rr: usize,
    replacements: u64,
}

impl ServiceManager {
    /// Creates a manager for the named service, leasing as `tenant`.
    pub fn new(name: &str, tenant: TenantId) -> ServiceManager {
        ServiceManager {
            name: name.to_string(),
            tenant,
            board_alms: whole_board_alms()[0],
            components: Vec::new(),
            rr: 0,
            replacements: 0,
        }
    }

    /// The service name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Leases `count` whole boards, all or nothing: the free boards are
    /// counted first, so every request is granted on the spot and none is
    /// left queued.
    fn lease(
        &self,
        pool: &mut ElasticScheduler,
        now: SimTime,
        count: usize,
    ) -> Result<Vec<RegionLease>, ElasticError> {
        let free = ((pool.pool_alms() - pool.used_alms()) / u64::from(self.board_alms)) as u32;
        let wanted = u32::try_from(count).unwrap_or(u32::MAX);
        if free < wanted {
            return Err(ElasticError::InsufficientCapacity { wanted, free });
        }
        (0..count)
            .map(|_| {
                // Granted at once, so filed under the id of its lease.
                let req = pool.counters().0;
                let (class, caps) = (TenantClass::Guaranteed, TenantCaps::UNLIMITED);
                pool.request(now, req, self.tenant, class, self.board_alms, false, caps)?;
                let lease = match pool.last_decisions() {
                    [.., Decision::Grant { at, .. }] => pool.board(at.board).and_then(|b| b.1),
                    _ => None,
                };
                lease.cloned().ok_or(ElasticError::UnknownLease(req))
            })
            .collect()
    }

    /// Grows the service by `count` single-FPGA components.
    ///
    /// # Errors
    ///
    /// [`ElasticError::InsufficientCapacity`] when fewer than `count`
    /// boards are free; nothing is leased then.
    pub fn grow(
        &mut self,
        pool: &mut ElasticScheduler,
        now: SimTime,
        count: usize,
    ) -> Result<(), ElasticError> {
        let leases = self.lease(pool, now, count)?;
        self.components
            .extend(leases.into_iter().map(|l| HwComponent { leases: vec![l] }));
        Ok(())
    }

    /// Allocates one multi-FPGA component (e.g. an 8-FPGA ranking
    /// pipeline).
    ///
    /// # Errors
    ///
    /// As [`grow`](Self::grow); nothing is leased on error.
    pub fn grow_component(
        &mut self,
        pool: &mut ElasticScheduler,
        now: SimTime,
        fpgas: usize,
    ) -> Result<&HwComponent, ElasticError> {
        let leases = self.lease(pool, now, fpgas)?;
        self.components.push(HwComponent { leases });
        Ok(&self.components[self.components.len() - 1])
    }

    /// Shrinks the service by releasing `count` components back to the
    /// pool (most recently allocated first).
    pub fn shrink(&mut self, pool: &mut ElasticScheduler, now: SimTime, count: usize) {
        for _ in 0..count {
            let Some(comp) = self.components.pop() else {
                return;
            };
            for lease in comp.leases {
                let _ = pool.release(now, lease.req);
            }
        }
    }

    /// All FPGA endpoints across components (what clients connect to).
    pub fn endpoints(&self) -> Vec<NodeAddr> {
        self.components.iter().flat_map(|c| c.addrs()).collect()
    }

    /// Round-robin load balancing: the endpoint the next client should
    /// use, or `None` if the service has no capacity.
    pub fn next_endpoint(&mut self) -> Option<NodeAddr> {
        let endpoints = self.endpoints();
        if endpoints.is_empty() {
            return None;
        }
        let pick = endpoints[self.rr % endpoints.len()];
        self.rr += 1;
        Some(pick)
    }

    /// Components currently held.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Replacements performed after failures.
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// Handles the loss of lease `failed_lease` (a board went down, see
    /// [`Decision::BoardDown`]): drops it and immediately leases a
    /// replacement — "failing nodes are removed from the pool with
    /// replacements quickly added". `Ok(None)` when the lease is not this
    /// service's.
    ///
    /// # Errors
    ///
    /// [`ElasticError::InsufficientCapacity`] when no board is free; the
    /// component is left degraded in that case.
    pub fn handle_failure(
        &mut self,
        pool: &mut ElasticScheduler,
        now: SimTime,
        failed_lease: u64,
    ) -> Result<Option<NodeAddr>, ElasticError> {
        let holds = |comp: &HwComponent| comp.leases.iter().any(|l| l.id == failed_lease);
        let Some(c) = self.components.iter().position(holds) else {
            return Ok(None);
        };
        self.components[c].leases.retain(|l| l.id != failed_lease);
        let mut replacement = self.lease(pool, now, 1)?;
        let addr = replacement[0].at.board;
        self.components[c].leases.append(&mut replacement);
        self.replacements += 1;
        Ok(Some(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn board(h: u16) -> NodeAddr {
        NodeAddr::new(0, h / 24, h % 24)
    }

    fn rig(n: u16) -> (ElasticScheduler, ServiceManager) {
        let pool = whole_board_pool((0..n).map(board));
        (pool, ServiceManager::new("test-svc", TenantId(1)))
    }

    /// The lease lost when `addr` goes down.
    fn fail(pool: &mut ElasticScheduler, addr: NodeAddr) -> u64 {
        pool.board_down(T0, addr).unwrap();
        match pool.last_decisions() {
            [Decision::BoardDown { lost, .. }] => lost[0],
            other => panic!("board down decided {other:?}"),
        }
    }

    #[test]
    fn grow_and_shrink_track_pool() {
        let (mut pool, mut sm) = rig(10);
        sm.grow(&mut pool, T0, 6).unwrap();
        assert_eq!(sm.component_count(), 6);
        assert_eq!(pool.leases().count(), 6);
        sm.shrink(&mut pool, T0, 2);
        assert_eq!(sm.component_count(), 4);
        assert_eq!(pool.leases().count(), 4);
        sm.grow(&mut pool, T0, 6).unwrap();
        assert_eq!(pool.leases().count(), 10);
    }

    #[test]
    fn round_robin_covers_all_endpoints() {
        let (mut pool, mut sm) = rig(5);
        sm.grow(&mut pool, T0, 3).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            seen.insert(sm.next_endpoint().unwrap());
        }
        assert_eq!(seen.len(), 3);
        // Wraps around.
        assert!(seen.contains(&sm.next_endpoint().unwrap()));
    }

    #[test]
    fn empty_service_has_no_endpoint() {
        let (_, mut sm) = rig(0);
        assert_eq!(sm.next_endpoint(), None);
    }

    #[test]
    fn multi_fpga_component_allocates_together() {
        let (mut pool, mut sm) = rig(10);
        let comp = sm.grow_component(&mut pool, T0, 4).unwrap();
        assert_eq!(comp.leases.len(), 4);
        assert_eq!(sm.endpoints().len(), 4);
        assert_eq!(sm.component_count(), 1);
    }

    #[test]
    fn failed_grow_leases_nothing_and_queues_nothing() {
        let (mut pool, mut sm) = rig(3);
        for err in [
            sm.grow(&mut pool, T0, 4),
            sm.grow_component(&mut pool, T0, 4).map(drop),
        ] {
            assert_eq!(
                err,
                Err(ElasticError::InsufficientCapacity { wanted: 4, free: 3 })
            );
        }
        assert_eq!(pool.leases().count(), 0, "partial grant leaked leases");
        assert!(pool.queued_reqs().is_empty(), "a request was left queued");
        assert_eq!(sm.component_count(), 0);
        sm.grow(&mut pool, T0, 3).unwrap();
        assert_eq!(sm.endpoints(), (0..3).map(board).collect::<Vec<_>>());
    }

    #[test]
    fn failure_triggers_replacement() {
        let (mut pool, mut sm) = rig(6);
        sm.grow(&mut pool, T0, 4).unwrap();
        let victim = sm.endpoints()[1];
        let lease = fail(&mut pool, victim);
        let replacement = sm.handle_failure(&mut pool, T0, lease).unwrap();
        assert_eq!(
            replacement,
            Some(board(4)),
            "first spare in registration order"
        );
        assert_eq!(sm.endpoints().len(), 4, "capacity restored");
        assert!(!sm.endpoints().contains(&victim));
        assert_eq!(sm.replacements(), 1);
    }

    #[test]
    fn replacements_follow_registration_order_after_a_down_up_cycle() {
        // Registered in reverse address order: the walk follows
        // registration, not addresses, and a repaired board rejoins at its
        // own place in it.
        let order: Vec<NodeAddr> = (0..6).rev().map(board).collect();
        let mut pool = whole_board_pool(order.iter().copied());
        let mut sm = ServiceManager::new("svc", TenantId(1));
        sm.grow(&mut pool, T0, 2).unwrap();
        assert_eq!(sm.endpoints(), order[..2]);
        let lease = fail(&mut pool, order[0]);
        assert_eq!(sm.handle_failure(&mut pool, T0, lease), Ok(Some(order[2])));
        pool.board_up(T0, order[0]).unwrap();
        let lease = fail(&mut pool, order[1]);
        assert_eq!(sm.handle_failure(&mut pool, T0, lease), Ok(Some(order[0])));
        sm.grow(&mut pool, T0, 2).unwrap();
        assert_eq!(sm.endpoints()[2..], order[3..5]);
    }

    #[test]
    fn whole_board_pool_never_migrates_a_lease() {
        // A freed board ahead of live leases: a defragmenting pool
        // repacks them at its 10 s boundary, the whole-board pool never.
        let run = |mut pool: ElasticScheduler| {
            let mut sm = ServiceManager::new("svc", TenantId(1));
            sm.grow(&mut pool, T0, 3).unwrap();
            let lease = fail(&mut pool, board(0));
            sm.handle_failure(&mut pool, T0, lease).unwrap();
            pool.board_up(T0, board(0)).unwrap();
            pool.advance_to(SimTime::from_secs(25));
            (pool.counters().3, sm.endpoints())
        };
        let kept = vec![board(3), board(1), board(2)];
        assert_eq!(run(whole_board_pool((0..5).map(board))), (0, kept));
        let mut defragging = ElasticScheduler::new(ElasticConfig::default());
        for h in 0..5 {
            defragging.add_board(board(h), &whole_board_alms()).unwrap();
        }
        assert!(run(defragging).0 > 0, "the control pool must migrate");
    }

    #[test]
    fn failure_with_exhausted_pool_degrades() {
        let (mut pool, mut sm) = rig(3);
        sm.grow(&mut pool, T0, 3).unwrap();
        let victim = sm.endpoints()[0];
        let lease = fail(&mut pool, victim);
        assert_eq!(
            sm.handle_failure(&mut pool, T0, lease),
            Err(ElasticError::InsufficientCapacity { wanted: 1, free: 0 })
        );
        assert_eq!(sm.endpoints().len(), 2, "degraded but functional");
    }

    #[test]
    fn two_services_share_the_pool() {
        let (mut pool, mut a) = rig(10);
        let mut b = ServiceManager::new("svc-b", TenantId(2));
        a.grow(&mut pool, T0, 4).unwrap();
        b.grow(&mut pool, T0, 4).unwrap();
        assert_eq!(
            pool.pool_alms() - pool.used_alms(),
            2 * u64::from(a.board_alms)
        );
        // No endpoint overlap.
        let ea: std::collections::HashSet<_> = a.endpoints().into_iter().collect();
        assert!(b.endpoints().iter().all(|e| !ea.contains(e)));
        // Shrinking one service frees capacity the other can claim.
        a.shrink(&mut pool, T0, 4);
        b.grow(&mut pool, T0, 5).unwrap();
        assert_eq!(b.endpoints().len(), 9);
    }
}
