//! Per-tenant isolation caps, enforced at the shell's LTL admission
//! point.
//!
//! When a board is carved into partial-reconfiguration regions, several
//! tenants share one shell — one LTL engine, one Elastic Router, one
//! 40G port pair. The HaaS scheduler programs a [`TenantCaps`] pair per
//! tenant (ER egress bandwidth, LTL credit budget) and the shell's
//! [`TenantCapTable`] enforces them with a deterministic fixed-window
//! ledger: each send is admitted only if the tenant still has an LTL
//! credit *and* bandwidth budget left in the current window. Windows are
//! derived from absolute simulation time, so enforcement is a pure
//! function of the event history — no timers, no drift, byte-identical
//! across replays.

use std::collections::BTreeMap;

use dcsim::{SimDuration, SimTime};
use telemetry::{MetricSource, MetricVisitor};

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
    /// charged against `er_mbps * window / 8` per enforcement window).
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

    /// Payload-byte budget per window of `window` length.
    pub fn bytes_per_window(&self, window: SimDuration) -> u64 {
        // mbps * ns / 8000 = bytes; saturate for UNLIMITED.
        (self.er_mbps as u64).saturating_mul(window.as_nanos()) / 8_000
    }
}

/// Why a send was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapVerdict {
    /// Within both budgets; charged and admitted.
    Admit,
    /// The tenant exhausted its LTL credits for this window.
    OutOfCredits,
    /// The tenant exhausted its ER bandwidth budget for this window.
    OutOfBandwidth,
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
    fn roll(&mut self, window_idx: u64) {
        if window_idx != self.window_idx {
            self.window_idx = window_idx;
            self.credits_used = 0;
            self.bytes_used = 0;
        }
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

/// Deterministic fixed-window cap ledger, one entry per capped tenant.
///
/// Tenants without an entry are unrestricted — an empty table makes the
/// shell behave exactly as before multi-tenancy existed.
#[derive(Debug, Clone)]
pub struct TenantCapTable {
    window: SimDuration,
    entries: BTreeMap<u32, TenantEntry>,
}

/// Default enforcement window: 10 µs, a few LTL round trips.
pub const DEFAULT_CAP_WINDOW: SimDuration = SimDuration::from_micros(10);

impl Default for TenantCapTable {
    fn default() -> Self {
        TenantCapTable::new(DEFAULT_CAP_WINDOW)
    }
}

impl TenantCapTable {
    /// Creates an empty table with the given enforcement window.
    pub fn new(window: SimDuration) -> TenantCapTable {
        TenantCapTable {
            window: window.max(SimDuration::from_nanos(1)),
            entries: BTreeMap::new(),
        }
    }

    /// The enforcement window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Installs (or replaces) a tenant's caps. Budgets restart from the
    /// current window on replacement.
    pub fn set_caps(&mut self, tenant: TenantId, caps: TenantCaps) {
        let entry = TenantEntry {
            caps,
            window_idx: u64::MAX, // rolls on first admit
            credits_used: 0,
            bytes_used: 0,
            credit_drops: 0,
            bandwidth_drops: 0,
            admitted: 0,
        };
        self.entries.insert(tenant.0, entry);
    }

    /// Removes a tenant's caps (back to unrestricted). Returns whether an
    /// entry existed.
    pub fn clear(&mut self, tenant: TenantId) -> bool {
        self.entries.remove(&tenant.0).is_some()
    }

    /// The caps installed for a tenant, if any.
    pub fn caps(&self, tenant: TenantId) -> Option<TenantCaps> {
        self.entries.get(&tenant.0).map(|e| e.caps)
    }

    /// Number of capped tenants.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no tenant is capped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Charges one message of `payload_bytes` against `tenant`'s budgets
    /// for the window containing `now`. Uncapped tenants always admit.
    pub fn admit(&mut self, tenant: TenantId, now: SimTime, payload_bytes: usize) -> CapVerdict {
        let Some(entry) = self.entries.get_mut(&tenant.0) else {
            return CapVerdict::Admit;
        };
        entry.roll(now.as_nanos() / self.window.as_nanos().max(1));
        if entry.credits_used >= entry.caps.ltl_credits {
            entry.credit_drops += 1;
            return CapVerdict::OutOfCredits;
        }
        // `er_mbps == u32::MAX` means "no bandwidth cap" (the UNLIMITED
        // sentinel), not a finite budget that huge payloads can drain.
        let budget = entry.caps.bytes_per_window(self.window);
        if entry.caps.er_mbps != u32::MAX
            && entry.bytes_used.saturating_add(payload_bytes as u64) > budget
        {
            entry.bandwidth_drops += 1;
            return CapVerdict::OutOfBandwidth;
        }
        entry.credits_used = entry.credits_used.saturating_add(1);
        entry.bytes_used = entry.bytes_used.saturating_add(payload_bytes as u64);
        entry.admitted += 1;
        CapVerdict::Admit
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

    fn table() -> TenantCapTable {
        let mut t = TenantCapTable::new(SimDuration::from_micros(10));
        // 800 Mbps over 10 µs = 1000 bytes per window; 3 credits.
        t.set_caps(
            TenantId(1),
            TenantCaps {
                er_mbps: 800,
                ltl_credits: 3,
            },
        );
        t
    }

    #[test]
    fn uncapped_tenants_always_admit() {
        let mut t = table();
        for i in 0..100 {
            assert_eq!(
                t.admit(TenantId(9), SimTime::from_nanos(i), 1 << 20),
                CapVerdict::Admit
            );
        }
    }

    #[test]
    fn credit_cap_limits_messages_per_window() {
        let mut t = table();
        let now = SimTime::from_micros(5);
        for _ in 0..3 {
            assert_eq!(t.admit(TenantId(1), now, 10), CapVerdict::Admit);
        }
        assert_eq!(t.admit(TenantId(1), now, 10), CapVerdict::OutOfCredits);
        // Next window refills.
        let later = SimTime::from_micros(15);
        assert_eq!(t.admit(TenantId(1), later, 10), CapVerdict::Admit);
        assert_eq!(t.total_drops(), 1);
    }

    #[test]
    fn bandwidth_cap_limits_bytes_per_window() {
        let mut t = table();
        let now = SimTime::from_micros(25);
        assert_eq!(t.admit(TenantId(1), now, 900), CapVerdict::Admit);
        assert_eq!(t.admit(TenantId(1), now, 200), CapVerdict::OutOfBandwidth);
        assert_eq!(t.admit(TenantId(1), now, 100), CapVerdict::Admit);
        assert_eq!(
            t.caps(TenantId(1)).unwrap().bytes_per_window(t.window()),
            1000
        );
    }

    #[test]
    fn clear_returns_tenant_to_unrestricted() {
        let mut t = table();
        assert!(t.clear(TenantId(1)));
        assert!(!t.clear(TenantId(1)));
        assert_eq!(
            t.admit(TenantId(1), SimTime::ZERO, 1 << 30),
            CapVerdict::Admit
        );
        assert!(t.is_empty());
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
            assert_eq!(
                a.admit(TenantId(1), now, bytes),
                b.admit(TenantId(1), now, bytes)
            );
        }
        assert_eq!(a.total_drops(), b.total_drops());
    }

    #[test]
    fn unlimited_caps_never_drop() {
        let mut t = TenantCapTable::default();
        t.set_caps(TenantId(0), TenantCaps::UNLIMITED);
        for i in 0..10_000u64 {
            assert_eq!(
                t.admit(TenantId(0), SimTime::from_nanos(i), usize::MAX >> 16),
                CapVerdict::Admit
            );
        }
        assert_eq!(t.total_drops(), 0);
    }
}
