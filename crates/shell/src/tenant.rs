//! Per-tenant isolation caps, enforced at the shell's LTL admission
//! point.
//!
//! When a board is carved into partial-reconfiguration regions, several
//! tenants share one shell — one LTL engine, one Elastic Router, one
//! 40G port pair. The HaaS scheduler programs a [`TenantCaps`] pair per
//! tenant (ER egress bandwidth, LTL credit budget) and the shell's
//! [`TenantCapTable`] enforces them with a deterministic fixed-window
//! ledger: each send on a connection bound to the tenant is admitted
//! only if the tenant still has an LTL
//! credit *and* bandwidth budget left in the current window. Windows are
//! derived from absolute simulation time, so enforcement is a pure
//! function of the event history — no timers, no drift, byte-identical
//! across replays.

use std::collections::BTreeMap;

use dcsim::{SimDuration, SimTime};
use telemetry::{MetricSource, MetricVisitor};

use crate::ltl::SendConnId;

/// Identifies a tenant across boards, shells and the HaaS scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl core::fmt::Display for TenantId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Isolation caps one tenant is held to on a shared shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantCaps {
    /// Elastic-Router egress bandwidth cap in Mbit/s (payload bytes are
    /// charged against `er_mbps * CAP_WINDOW / 8` per enforcement window).
    pub er_mbps: u32,
    /// LTL credits: messages the tenant may admit per enforcement window.
    pub ltl_credits: u32,
}

impl TenantCaps {
    /// An effectively uncapped tenant (the single-tenant legacy shape).
    pub const UNLIMITED: TenantCaps = TenantCaps {
        er_mbps: u32::MAX,
        ltl_credits: u32::MAX,
    };

    /// Payload-byte budget per [`CAP_WINDOW`].
    pub fn bytes_per_window(&self) -> u64 {
        // mbps * ns / 8000 = bytes; saturate for UNLIMITED.
        (self.er_mbps as u64).saturating_mul(CAP_WINDOW.as_nanos()) / 8_000
    }
}

#[derive(Debug, Clone)]
struct TenantEntry {
    caps: TenantCaps,
    window_idx: u64,
    credits_used: u32,
    bytes_used: u64,
    credit_drops: u64,
    bandwidth_drops: u64,
    admitted: u64,
}

impl TenantEntry {
    /// Installs `caps` and restarts the window ledger; the counters go on.
    fn set_caps(&mut self, caps: TenantCaps) {
        self.caps = caps;
        self.window_idx = u64::MAX; // rolls on first admit
        self.credits_used = 0;
        self.bytes_used = 0;
    }

    /// Charges one message of `payload_bytes` against the budgets of the
    /// window containing `now`.
    fn admit(&mut self, now: SimTime, payload_bytes: usize) -> bool {
        let window_idx = now.as_nanos() / CAP_WINDOW.as_nanos();
        if window_idx != self.window_idx {
            self.window_idx = window_idx;
            self.credits_used = 0;
            self.bytes_used = 0;
        }
        if self.credits_used >= self.caps.ltl_credits {
            self.credit_drops += 1;
            return false;
        }
        // `er_mbps == u32::MAX` means "no bandwidth cap" (the UNLIMITED
        // sentinel), not a finite budget that huge payloads can drain.
        let bytes_used = self.bytes_used.saturating_add(payload_bytes as u64);
        if self.caps.er_mbps != u32::MAX && bytes_used > self.caps.bytes_per_window() {
            self.bandwidth_drops += 1;
            return false;
        }
        self.credits_used = self.credits_used.saturating_add(1);
        self.bytes_used = bytes_used;
        self.admitted += 1;
        true
    }
}

impl MetricSource for TenantEntry {
    fn metrics(&self, m: &mut MetricVisitor<'_>) {
        m.gauge("er_mbps_cap", self.caps.er_mbps as f64);
        m.gauge("ltl_credit_cap", self.caps.ltl_credits as f64);
        m.counter("admitted", self.admitted);
        m.counter("credit_drops", self.credit_drops);
        m.counter("bandwidth_drops", self.bandwidth_drops);
    }
}

/// The shell's tenant admission stage: which tenant owns each LTL send
/// connection, and a deterministic fixed-window cap ledger, one entry per
/// capped tenant.
///
/// Connections without a tenant, and tenants without an entry, are
/// unrestricted — an empty table makes the shell behave exactly as before
/// multi-tenancy existed.
#[derive(Debug, Clone, Default)]
pub struct TenantCapTable {
    entries: BTreeMap<u32, TenantEntry>,
    conns: BTreeMap<SendConnId, TenantId>,
}

/// The enforcement window: 10 µs, a few LTL round trips.
pub const CAP_WINDOW: SimDuration = SimDuration::from_micros(10);

impl TenantCapTable {
    /// Attributes (`Some`) or detaches (`None`) a send connection to a
    /// tenant, whose caps then charge its traffic.
    pub fn bind(&mut self, conn: SendConnId, tenant: Option<TenantId>) {
        match tenant {
            Some(tenant) => _ = self.conns.insert(conn, tenant),
            None => _ = self.conns.remove(&conn),
        }
    }

    /// Installs or replaces (`Some`) a tenant's caps, or removes them
    /// (`None`: back to unrestricted). A replacement restarts the budgets
    /// from the current window and keeps the tenant's counters.
    pub fn set_caps(&mut self, tenant: TenantId, caps: Option<TenantCaps>) {
        let Some(caps) = caps else {
            self.entries.remove(&tenant.0);
            return;
        };
        let entry = self.entries.entry(tenant.0).or_insert(TenantEntry {
            caps,
            window_idx: u64::MAX,
            credits_used: 0,
            bytes_used: 0,
            credit_drops: 0,
            bandwidth_drops: 0,
            admitted: 0,
        });
        entry.set_caps(caps);
    }

    /// The caps installed for a tenant, if any.
    pub fn caps(&self, tenant: TenantId) -> Option<TenantCaps> {
        self.entries.get(&tenant.0).map(|e| e.caps)
    }

    /// Whether no tenant is capped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Admission of one message of `payload_bytes` on `conn` at `now`: a
    /// connection bound to a capped tenant is charged against that
    /// tenant's budgets for the window containing `now`, and refused once
    /// either is spent. Every other send is admitted.
    pub fn admit(&mut self, conn: SendConnId, now: SimTime, payload_bytes: usize) -> bool {
        let tenant = self.conns.get(&conn);
        let entry = tenant.and_then(|t| self.entries.get_mut(&t.0));
        entry.is_none_or(|entry| entry.admit(now, payload_bytes))
    }

    /// Total drops across tenants (both causes).
    pub fn total_drops(&self) -> u64 {
        self.entries
            .values()
            .map(|e| e.credit_drops + e.bandwidth_drops)
            .sum()
    }
}

impl MetricSource for TenantCapTable {
    fn metrics(&self, m: &mut MetricVisitor<'_>) {
        for (id, entry) in &self.entries {
            // Zero-padded so that path order is id order below 1000.
            m.child(&format!("t{id:03}"), entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Connection 7 belongs to capped tenant 1, connection 9 to uncapped
    /// tenant 9.
    const CAPPED: SendConnId = 7;
    const UNCAPPED: SendConnId = 9;

    fn table() -> TenantCapTable {
        let mut t = TenantCapTable::default();
        // 800 Mbps over 10 µs = 1000 bytes per window; 3 credits.
        t.set_caps(
            TenantId(1),
            Some(TenantCaps {
                er_mbps: 800,
                ltl_credits: 3,
            }),
        );
        t.bind(CAPPED, Some(TenantId(1)));
        t.bind(UNCAPPED, Some(TenantId(9)));
        t
    }

    /// `(credit_drops, bandwidth_drops, admitted)` of tenant 1.
    fn counters(t: &TenantCapTable) -> (u64, u64, u64) {
        let e = &t.entries[&1];
        (e.credit_drops, e.bandwidth_drops, e.admitted)
    }

    #[test]
    fn uncapped_tenants_always_admit() {
        let mut t = table();
        for i in 0..100 {
            assert!(t.admit(UNCAPPED, SimTime::from_nanos(i), 1 << 20));
            assert!(t.admit(3, SimTime::from_nanos(i), 1 << 20));
        }
        assert_eq!(t.total_drops(), 0);
    }

    #[test]
    fn credit_cap_limits_messages_per_window() {
        let mut t = table();
        let now = SimTime::from_micros(5);
        for _ in 0..3 {
            assert!(t.admit(CAPPED, now, 10));
        }
        assert!(!t.admit(CAPPED, now, 10));
        assert_eq!(counters(&t), (1, 0, 3));
        // Next window refills.
        let later = SimTime::from_micros(15);
        assert!(t.admit(CAPPED, later, 10));
        assert_eq!(t.total_drops(), 1);
    }

    #[test]
    fn bandwidth_cap_limits_bytes_per_window() {
        let mut t = table();
        let now = SimTime::from_micros(25);
        assert!(t.admit(CAPPED, now, 900));
        assert!(!t.admit(CAPPED, now, 200));
        assert!(t.admit(CAPPED, now, 100));
        assert_eq!(counters(&t), (0, 1, 2));
        assert_eq!(t.caps(TenantId(1)).unwrap().bytes_per_window(), 1000);
    }

    #[test]
    fn clear_returns_tenant_to_unrestricted() {
        let mut t = table();
        t.set_caps(TenantId(1), None);
        assert!(t.admit(CAPPED, SimTime::ZERO, 1 << 30));
        assert!(t.is_empty());
    }

    #[test]
    fn unbinding_a_connection_returns_it_to_unrestricted() {
        let mut t = table();
        t.bind(CAPPED, None);
        assert!(t.admit(CAPPED, SimTime::ZERO, 1 << 30));
        assert_eq!(t.total_drops(), 0);
    }

    /// Replacing a tenant's caps restarts only its window ledger: the
    /// registry's `admitted` and drop counters never go backwards.
    #[test]
    fn replacing_caps_keeps_the_counters() {
        let mut t = table();
        let now = SimTime::from_micros(5);
        for bytes in [10, 10, 2_000, 10, 10] {
            t.admit(CAPPED, now, bytes);
        }
        assert_eq!(counters(&t), (1, 1, 3));
        let caps = TenantCaps {
            er_mbps: 800,
            ltl_credits: 1,
        };
        t.set_caps(TenantId(1), Some(caps));
        assert_eq!(counters(&t), (1, 1, 3));
        assert_eq!(t.caps(TenantId(1)), Some(caps));
        // The budgets restart within the same window.
        assert!(t.admit(CAPPED, now, 10));
        assert!(!t.admit(CAPPED, now, 10));
        assert_eq!(counters(&t), (2, 1, 4));
    }

    #[test]
    fn windows_derive_from_absolute_time() {
        // Two tables fed the same (time, size) stream agree exactly,
        // regardless of construction time — enforcement is replayable.
        let mut a = table();
        let mut b = table();
        let stream = [(1u64, 400usize), (9, 700), (11, 700), (19, 400), (21, 900)];
        for (us, bytes) in stream {
            let now = SimTime::from_micros(us);
            assert_eq!(a.admit(CAPPED, now, bytes), b.admit(CAPPED, now, bytes));
        }
        assert_eq!(a.total_drops(), b.total_drops());
    }

    #[test]
    fn unlimited_caps_never_drop() {
        let mut t = TenantCapTable::default();
        t.set_caps(TenantId(0), Some(TenantCaps::UNLIMITED));
        t.bind(CAPPED, Some(TenantId(0)));
        for i in 0..10_000u64 {
            assert!(t.admit(CAPPED, SimTime::from_nanos(i), usize::MAX >> 16));
        }
        assert_eq!(t.total_drops(), 0);
    }
}
