//! Pure reference implementation of the elastic HaaS scheduler.
//!
//! [`RefScheduler`] re-implements the placement contract documented on
//! [`haas::ElasticScheduler`] — best-fit placement, bounded-latency
//! preemption, best-fit-decreasing defragmentation, spot reclamation —
//! from the specification alone, with none of the production structure:
//! state is one flat slot list with leases embedded in their slots, every
//! query is a fresh scan, and there is no incremental bookkeeping to get
//! wrong. The differential harness in [`crate::elastic`] steps it in
//! lockstep with the real scheduler and compares [`Decision`] streams,
//! placement snapshots and lease tables after every trace event.

use dcnet::NodeAddr;
use dcsim::{SimTime, FNV1A_OFFSET};
use haas::{
    fingerprint_decision, Decision, ElasticConfig, LeaseEvent, LeaseEventKind, PlacementRow,
    RegionLease, RegionRef, TenantClass,
};
use shell::tenant::{TenantCaps, TenantId};

/// A lease as the reference tracks it: stored inside its slot.
#[derive(Debug, Clone)]
struct RefLease {
    id: u64,
    req: u64,
    tenant: TenantId,
    class: TenantClass,
    alms: u32,
    preemptible: bool,
    caps: TenantCaps,
}

/// One placement slot (a PR region on a board), flat across all boards.
#[derive(Debug, Clone)]
struct RefSlot {
    board: NodeAddr,
    region: u8,
    alms: u32,
    occupant: Option<RefLease>,
    /// In-flight eviction: when the slot frees, and the request (if any)
    /// it is reserved for.
    pending: Option<(SimTime, Option<u64>)>,
}

#[derive(Debug, Clone)]
struct RefWaiting {
    req: u64,
    tenant: TenantId,
    class: TenantClass,
    alms: u32,
    preemptible: bool,
    caps: TenantCaps,
    arrived: SimTime,
}

/// Lifecycle of a request sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefReq {
    Queued,
    Active(u64),
    Done,
}

/// The executable reference model of the elastic scheduler contract.
#[derive(Debug, Clone)]
pub struct RefScheduler {
    cfg: ElasticConfig,
    /// Registration order, with the up/down flag.
    boards: Vec<(NodeAddr, bool)>,
    /// All slots, in board-registration then region order.
    slots: Vec<RefSlot>,
    queue: Vec<RefWaiting>,
    reqs: Vec<(u64, RefReq)>,
    next_lease: u64,
    defrag_done: u64,
    decisions: Vec<Decision>,
    fingerprint: u64,
}

impl RefScheduler {
    /// Creates an empty reference scheduler.
    pub fn new(cfg: ElasticConfig) -> RefScheduler {
        RefScheduler {
            cfg,
            boards: Vec::new(),
            slots: Vec::new(),
            queue: Vec::new(),
            reqs: Vec::new(),
            next_lease: 0,
            defrag_done: 0,
            decisions: Vec::new(),
            fingerprint: FNV1A_OFFSET,
        }
    }

    /// Registers a board (must mirror the real scheduler's registration
    /// order; duplicates are a harness bug and simply ignored).
    pub fn add_board(&mut self, addr: NodeAddr, region_alms: &[u32]) {
        if self.boards.iter().any(|(a, _)| *a == addr) {
            return;
        }
        self.boards.push((addr, true));
        for (i, &alms) in region_alms.iter().enumerate() {
            self.slots.push(RefSlot {
                board: addr,
                region: i as u8,
                alms,
                occupant: None,
                pending: None,
            });
        }
    }

    /// The decision log so far.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Whether a board is currently up (false for unknown boards).
    pub fn board_is_up(&self, addr: NodeAddr) -> bool {
        self.board_up_flag(addr)
    }

    /// FNV-1a fingerprint of the decision log (same fold as the real
    /// scheduler's).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Placement snapshot in the real scheduler's canonical shape.
    pub fn placement(&self) -> Vec<PlacementRow> {
        self.slots
            .iter()
            .map(|s| {
                (
                    RegionRef {
                        board: s.board,
                        region: s.region,
                    },
                    s.occupant.as_ref().map(|l| l.id),
                    s.pending.map(|(t, r)| (t.as_nanos(), r)),
                )
            })
            .collect()
    }

    /// Live leases as [`RegionLease`] values, ascending id.
    pub fn leases(&self) -> Vec<RegionLease> {
        let mut out: Vec<RegionLease> = self
            .slots
            .iter()
            .filter_map(|s| {
                let l = s.occupant.as_ref()?;
                Some(RegionLease {
                    id: l.id,
                    req: l.req,
                    tenant: l.tenant,
                    class: l.class,
                    alms: l.alms,
                    preemptible: l.preemptible,
                    caps: l.caps,
                    at: RegionRef {
                        board: s.board,
                        region: s.region,
                    },
                })
            })
            .collect();
        out.sort_by_key(|l| l.id);
        out
    }

    /// Applies one trace event, returning the decisions it produced.
    pub fn apply(&mut self, ev: &LeaseEvent) -> Vec<Decision> {
        let start = self.decisions.len();
        self.advance_to(ev.at);
        match &ev.kind {
            LeaseEventKind::Request {
                req,
                tenant,
                class,
                alms,
                preemptible,
                caps,
            } => self.request(ev.at, *req, *tenant, *class, *alms, *preemptible, *caps),
            LeaseEventKind::Release { req } => self.release(ev.at, *req),
            LeaseEventKind::BoardDown { board } => self.board_down(ev.at, *board),
            LeaseEventKind::BoardUp { board } => self.board_up(ev.at, *board),
        }
        self.decisions[start..].to_vec()
    }

    /// Runs time forward, completing due evictions and defrag boundaries
    /// in order; evictions at time T complete before a defrag at T.
    pub fn advance_to(&mut self, now: SimTime) {
        loop {
            let next_evict = self
                .slots
                .iter()
                .filter_map(|s| s.pending.map(|(t, _)| t))
                .min();
            let next_defrag = (self.cfg.defrag_period.as_nanos() > 0).then(|| {
                SimTime::from_nanos((self.defrag_done + 1) * self.cfg.defrag_period.as_nanos())
            });
            let step = match (next_evict, next_defrag) {
                (Some(e), Some(d)) if e <= d => (e, true),
                (Some(e), None) => (e, true),
                (_, Some(d)) => (d, false),
                (None, None) => return,
            };
            if step.0 > now {
                return;
            }
            if step.1 {
                self.complete_evictions(step.0);
            } else {
                self.defrag_done = step.0.as_nanos() / self.cfg.defrag_period.as_nanos();
                self.defrag(step.0);
            }
        }
    }

    fn push(&mut self, d: Decision) {
        self.fingerprint = fingerprint_decision(self.fingerprint, &d);
        self.decisions.push(d);
    }

    fn req_state(&self, req: u64) -> Option<RefReq> {
        self.reqs
            .iter()
            .rev()
            .find(|(r, _)| *r == req)
            .map(|(_, s)| *s)
    }

    fn set_req(&mut self, req: u64, state: RefReq) {
        if let Some(slot) = self.reqs.iter_mut().find(|(r, _)| *r == req) {
            slot.1 = state;
        } else {
            self.reqs.push((req, state));
        }
    }

    fn board_up_flag(&self, addr: NodeAddr) -> bool {
        self.boards.iter().any(|(a, up)| *a == addr && *up)
    }

    /// Index of the smallest free, unreserved slot on an up board that
    /// fits `alms`; ties go to the earliest slot in registration order.
    fn best_fit_free(&self, alms: u32) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None;
        for (i, s) in self.slots.iter().enumerate() {
            if s.occupant.is_none()
                && s.pending.is_none()
                && s.alms >= alms
                && self.board_up_flag(s.board)
                && best.is_none_or(|(sz, _)| s.alms < sz)
            {
                best = Some((s.alms, i));
            }
        }
        best.map(|(_, i)| i)
    }

    fn grant(&mut self, now: SimTime, w: &RefWaiting, slot_idx: usize) {
        let id = self.next_lease;
        self.next_lease += 1;
        let at = RegionRef {
            board: self.slots[slot_idx].board,
            region: self.slots[slot_idx].region,
        };
        self.slots[slot_idx].occupant = Some(RefLease {
            id,
            req: w.req,
            tenant: w.tenant,
            class: w.class,
            alms: w.alms,
            preemptible: w.preemptible,
            caps: w.caps,
        });
        self.set_req(w.req, RefReq::Active(id));
        self.push(Decision::Grant {
            req: w.req,
            lease: id,
            at,
            waited_ns: now.as_nanos().saturating_sub(w.arrived.as_nanos()),
        });
    }

    /// Grants every queued request that now fits, strongest class first
    /// then arrival order, skipping requests that still do not fit.
    fn grant_queued(&mut self, now: SimTime) {
        loop {
            let mut order: Vec<usize> = (0..self.queue.len()).collect();
            order.sort_by_key(|&i| (self.queue[i].class.rank(), self.queue[i].req));
            let pick = order
                .into_iter()
                .find_map(|i| self.best_fit_free(self.queue[i].alms).map(|s| (i, s)));
            let Some((i, slot_idx)) = pick else { return };
            let w = self.queue.remove(i);
            self.grant(now, &w, slot_idx);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn request(
        &mut self,
        now: SimTime,
        req: u64,
        tenant: TenantId,
        class: TenantClass,
        alms: u32,
        preemptible: bool,
        caps: TenantCaps,
    ) {
        // An id that is still queued or leased is refused outright: no
        // decision, no state change (`ElasticError::DuplicateRequest`).
        if let Some(RefReq::Queued | RefReq::Active(_)) = self.req_state(req) {
            return;
        }
        let largest = self
            .slots
            .iter()
            .filter(|s| self.board_up_flag(s.board))
            .map(|s| s.alms)
            .max()
            .unwrap_or(0);
        if alms > largest {
            self.set_req(req, RefReq::Done);
            self.push(Decision::Reject { req });
            return;
        }
        let preemptible = match class {
            TenantClass::Guaranteed => false,
            TenantClass::Standard => preemptible,
            TenantClass::Spot => true,
        };
        let w = RefWaiting {
            req,
            tenant,
            class,
            alms,
            preemptible,
            caps,
            arrived: now,
        };
        if let Some(slot_idx) = self.best_fit_free(alms) {
            self.grant(now, &w, slot_idx);
        } else {
            self.set_req(req, RefReq::Queued);
            self.queue.push(w.clone());
            self.push(Decision::Queue { req });
            self.try_preempt_for(now, &w);
        }
        self.reclaim_if_drained(now);
    }

    /// Evicts the weakest-class preemptible lease of a strictly lower
    /// class in the smallest sufficient region, reserving it for `w`.
    fn try_preempt_for(&mut self, now: SimTime, w: &RefWaiting) {
        /// Victim ranking: weakest class first, then smallest region, then id.
        type VictimKey = (core::cmp::Reverse<u8>, u32, u64);
        let mut best: Option<(VictimKey, usize)> = None;
        for (i, s) in self.slots.iter().enumerate() {
            let Some(l) = &s.occupant else { continue };
            if !l.preemptible
                || l.class.rank() <= w.class.rank()
                || s.pending.is_some()
                || s.alms < w.alms
                || !self.board_up_flag(s.board)
            {
                continue;
            }
            let key = (core::cmp::Reverse(l.class.rank()), s.alms, l.id);
            if best.as_ref().is_none_or(|(k, _)| key < *k) {
                best = Some((key, i));
            }
        }
        let Some((_, idx)) = best else { return };
        let victim = self.slots[idx].occupant.as_ref().map(|l| l.id).unwrap_or(0);
        let at = RegionRef {
            board: self.slots[idx].board,
            region: self.slots[idx].region,
        };
        self.slots[idx].pending = Some((now + self.cfg.eviction_window, Some(w.req)));
        self.push(Decision::Evict {
            victim,
            for_req: w.req,
            at,
        });
    }

    /// Completes every eviction due exactly at `t`, in slot order; freed
    /// slots go to their reserved request first, then the general queue.
    fn complete_evictions(&mut self, t: SimTime) {
        let mut freed: Vec<(usize, Option<u64>)> = Vec::new();
        for (i, s) in self.slots.iter_mut().enumerate() {
            if let Some((due, reserved)) = s.pending {
                if due == t {
                    s.pending = None;
                    if let Some(l) = s.occupant.take() {
                        self.reqs
                            .iter_mut()
                            .filter(|(r, _)| *r == l.req)
                            .for_each(|slot| slot.1 = RefReq::Done);
                    }
                    freed.push((i, reserved));
                }
            }
        }
        for (idx, reserved) in &freed {
            if let Some(req) = reserved {
                if let Some(pos) = self.queue.iter().position(|w| w.req == *req) {
                    let w = self.queue.remove(pos);
                    self.grant(t, &w, *idx);
                }
            }
        }
        if !freed.is_empty() {
            self.grant_queued(t);
            self.repreempt_queued(t);
        }
    }

    /// Re-arms preemption for queued requests with no reservation and no
    /// free fit, strongest class first (after crashes and reserved
    /// grants, which can both strand a stronger waiter).
    fn repreempt_queued(&mut self, now: SimTime) {
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        order.sort_by_key(|&i| (self.queue[i].class.rank(), self.queue[i].req));
        for i in order {
            let w = self.queue[i].clone();
            let reserved = self
                .slots
                .iter()
                .any(|s| matches!(s.pending, Some((_, Some(r))) if r == w.req));
            if reserved || self.best_fit_free(w.alms).is_some() {
                continue;
            }
            self.try_preempt_for(now, &w);
        }
    }

    fn release(&mut self, now: SimTime, req: u64) {
        match self.req_state(req) {
            None | Some(RefReq::Done) => {
                self.push(Decision::Release { req, lease: None });
            }
            Some(RefReq::Queued) => {
                self.queue.retain(|w| w.req != req);
                self.set_req(req, RefReq::Done);
                for s in &mut self.slots {
                    if let Some((t, Some(r))) = s.pending {
                        if r == req {
                            s.pending = Some((t, None));
                        }
                    }
                }
                self.push(Decision::Release { req, lease: None });
            }
            Some(RefReq::Active(id)) => {
                self.set_req(req, RefReq::Done);
                for s in &mut self.slots {
                    if s.occupant.as_ref().is_some_and(|l| l.id == id) {
                        s.occupant = None;
                    }
                }
                self.push(Decision::Release {
                    req,
                    lease: Some(id),
                });
                self.grant_queued(now);
            }
        }
    }

    /// Spot leases eligible for reclamation: largest region first, ties
    /// by lease id.
    fn spot_victims(&self) -> Vec<(u32, u64, usize)> {
        let mut v: Vec<(u32, u64, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let l = s.occupant.as_ref()?;
                (l.class == TenantClass::Spot && s.pending.is_none() && self.board_up_flag(s.board))
                    .then_some((s.alms, l.id, i))
            })
            .collect();
        v.sort_by_key(|&(alms, id, _)| (core::cmp::Reverse(alms), id));
        v
    }

    /// Keeps `spot_reserve_permille` of the pool free or freeing by
    /// reclaiming spot leases, largest first.
    fn reclaim_if_drained(&mut self, now: SimTime) {
        if self.cfg.spot_reserve_permille == 0 {
            return;
        }
        loop {
            let pool: u64 = self
                .slots
                .iter()
                .filter(|s| self.board_up_flag(s.board))
                .map(|s| s.alms as u64)
                .sum();
            if pool == 0 {
                return;
            }
            let freeing: u64 = self
                .slots
                .iter()
                .filter(|s| self.board_up_flag(s.board))
                .filter(|s| s.occupant.is_none() || s.pending.is_some())
                .map(|s| s.alms as u64)
                .sum();
            if freeing * 1000 >= pool * self.cfg.spot_reserve_permille as u64 {
                return;
            }
            let Some(&(_, victim, idx)) = self.spot_victims().first() else {
                return;
            };
            let at = RegionRef {
                board: self.slots[idx].board,
                region: self.slots[idx].region,
            };
            self.slots[idx].pending = Some((now + self.cfg.eviction_window, None));
            self.push(Decision::Reclaim { victim, at });
        }
    }

    fn board_down(&mut self, now: SimTime, board: NodeAddr) {
        let Some(flag) = self.boards.iter_mut().find(|(a, _)| *a == board) else {
            return;
        };
        flag.1 = false;
        let mut lost = Vec::new();
        for s in self.slots.iter_mut().filter(|s| s.board == board) {
            if let Some(l) = s.occupant.take() {
                lost.push((l.id, l.req));
            }
            s.pending = None;
        }
        lost.sort_unstable();
        for &(_, req) in &lost {
            self.set_req(req, RefReq::Done);
        }
        self.push(Decision::BoardDown {
            board,
            lost: lost.into_iter().map(|(id, _)| id).collect(),
        });
        // Dropped reservations re-arm: queued requests without one and
        // without a free fit retry preemption, strongest first.
        self.repreempt_queued(now);
    }

    fn board_up(&mut self, now: SimTime, board: NodeAddr) {
        let Some(flag) = self.boards.iter_mut().find(|(a, _)| *a == board) else {
            return;
        };
        flag.1 = true;
        self.push(Decision::BoardUp { board });
        self.grant_queued(now);
    }

    /// Best-fit-decreasing repack: every live lease on an up,
    /// non-evicting slot is reassigned the smallest fitting slot;
    /// assignments that change become migrations, applied two-phase in
    /// lease-id order.
    fn defrag(&mut self, now: SimTime) {
        let candidate: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.pending.is_none() && self.board_up_flag(s.board))
            .map(|(i, _)| i)
            .collect();
        let mut by_size: Vec<(u32, u64, usize)> = candidate
            .iter()
            .filter_map(|&i| {
                let l = self.slots[i].occupant.as_ref()?;
                Some((l.alms, l.id, i))
            })
            .collect();
        by_size.sort_by_key(|&(alms, id, _)| (core::cmp::Reverse(alms), id));
        let mut taken = vec![false; candidate.len()];
        // (lease id, from slot, to slot), gathered then sorted by id.
        let mut moves: Vec<(u64, usize, usize)> = Vec::new();
        for (alms, id, from) in by_size {
            let mut best: Option<(u32, usize)> = None;
            for (ci, &slot_idx) in candidate.iter().enumerate() {
                let sz = self.slots[slot_idx].alms;
                if !taken[ci] && sz >= alms && best.is_none_or(|(bsz, _)| sz < bsz) {
                    best = Some((sz, ci));
                }
            }
            if let Some((_, ci)) = best {
                taken[ci] = true;
                if candidate[ci] != from {
                    moves.push((id, from, candidate[ci]));
                }
            }
        }
        moves.sort_by_key(|&(id, _, _)| id);
        let mut carried: Vec<(usize, RefLease)> = Vec::new();
        for &(_, from, to) in &moves {
            if let Some(l) = self.slots[from].occupant.take() {
                carried.push((to, l));
            }
        }
        for (to, l) in carried {
            self.slots[to].occupant = Some(l);
        }
        for (id, from, to) in moves {
            self.push(Decision::Migrate {
                lease: id,
                from: RegionRef {
                    board: self.slots[from].board,
                    region: self.slots[from].region,
                },
                to: RegionRef {
                    board: self.slots[to].board,
                    region: self.slots[to].region,
                },
            });
        }
        self.grant_queued(now);
        self.repreempt_queued(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::SimDuration;

    fn caps() -> TenantCaps {
        TenantCaps {
            er_mbps: 500,
            ltl_credits: 8,
        }
    }

    fn ev(at: SimTime, kind: LeaseEventKind) -> LeaseEvent {
        LeaseEvent { at, kind }
    }

    fn request(req: u64, class: TenantClass, alms: u32, preemptible: bool) -> LeaseEventKind {
        LeaseEventKind::Request {
            req,
            tenant: TenantId(req as u32),
            class,
            alms,
            preemptible,
            caps: caps(),
        }
    }

    #[test]
    fn reference_places_best_fit() {
        let mut r = RefScheduler::new(ElasticConfig::default());
        r.add_board(NodeAddr::new(0, 0, 1), &[10_000, 20_000]);
        let d = r.apply(&ev(
            SimTime::ZERO,
            request(0, TenantClass::Standard, 9_000, false),
        ));
        assert!(matches!(
            d[0],
            Decision::Grant {
                at: RegionRef { region: 0, .. },
                ..
            }
        ));
    }

    #[test]
    fn reference_matches_real_on_a_mixed_trace() {
        let cfg = ElasticConfig {
            eviction_window: SimDuration::from_millis(100),
            defrag_period: SimDuration::from_secs(1),
            spot_reserve_permille: 200,
        };
        let mut real = haas::ElasticScheduler::new(cfg);
        let mut reference = RefScheduler::new(cfg);
        for h in 1..=2u16 {
            real.add_board(NodeAddr::new(0, 0, h), &[10_000, 20_000, 30_000])
                .unwrap();
            reference.add_board(NodeAddr::new(0, 0, h), &[10_000, 20_000, 30_000]);
        }
        let classes = TenantClass::ALL;
        for i in 0..60u64 {
            let at = SimTime::from_millis(i * 37);
            let kind = match i % 5 {
                4 => LeaseEventKind::Release { req: i / 2 },
                _ => request(
                    i,
                    classes[(i % 3) as usize],
                    5_000 + ((i as u32 * 2_971) % 26_000),
                    i % 2 == 0,
                ),
            };
            let e = ev(at, kind);
            assert_eq!(real.apply(&e), reference.apply(&e), "event {i}");
        }
        real.advance_to(SimTime::from_secs(5));
        reference.advance_to(SimTime::from_secs(5));
        assert_eq!(real.fingerprint(), reference.fingerprint());
        assert_eq!(real.placement(), reference.placement());
        let real_leases: Vec<RegionLease> = real.leases().cloned().collect();
        assert_eq!(real_leases, reference.leases());
    }
}
