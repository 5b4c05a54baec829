//! Deterministic simulation testing for the cluster substrate.
//!
//! Production distributed systems built on deterministic simulators
//! (FoundationDB, TigerBeetle) earn most of their reliability from three
//! ingredients this crate supplies for the Catapult reproduction:
//!
//! 1. **Executable reference models** — small, obviously-correct
//!    re-implementations of the tricky protocol state machines (the LTL
//!    retransmission protocol in both transport modes, the DC-QCN
//!    reaction point) that are stepped in lockstep with the real
//!    implementations and differentially compared after *every* engine
//!    event ([`sr_model::LtlRefModel`], [`dcqcn_ref`],
//!    and the elastic-scheduler reference [`haas_ref::RefScheduler`]
//!    driven by [`elastic`]).
//! 2. **Global invariant checkers** — predicates over whole-cluster state
//!    (switch queue bounds, PFC pause obedience, Elastic Router flit
//!    conservation, HaaS lease-state legality, per-flow delivery order)
//!    evaluated at event granularity through the engine's [`dcsim::Observer`]
//!    hook ([`invariants`], [`er_check`]).
//! 3. **A shrinking fuzz driver** — seed sweeps over randomized topologies,
//!    fault plans and schedule perturbations, with failing inputs reduced
//!    by delta debugging to a minimal reproduction that replays
//!    byte-identically ([`shrink`], [`repro`], `bench`'s `simcheck` binary).
//!
//! Every oracle that has an event list to shrink is a [`Case`]: the LTL
//! session ([`session::SessionSpec`]), the whole-cluster scenario
//! ([`scenario::ScenarioSpec`]) and the scheduler differential
//! ([`elastic::ElasticSpec`]) implement it directly, and
//! [`shrink::shrink`], [`repro::Repro`] and the driver are written once
//! over the trait. A new oracle is one `impl Case` plus its checks.
//!
//! Everything here is deliberately *passive*: oracles observe through
//! read-only views and never schedule events, so attaching them cannot
//! change the simulation outcome — the property that makes a shrunk repro
//! valid evidence about an oracle-free run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod dcqcn_ref;
pub mod elastic;
pub mod er_check;
pub mod haas_ref;
pub mod invariants;
mod json;
pub mod repro;
pub mod scenario;
pub mod session;
pub mod shrink;
pub mod sr_model;

use dcsim::SimTime;
use serde::Value;

/// One oracle violation: a falsified invariant or a divergence between a
/// reference model and the real implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Simulation time of the event after which the check failed.
    pub at: SimTime,
    /// Which oracle fired (stable, machine-matchable name).
    pub check: &'static str,
    /// Human-readable detail: expected vs. observed.
    pub detail: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "[{} ns] {}: {}",
            self.at.as_nanos(),
            self.check,
            self.detail
        )
    }
}

/// What one oracle run observed. Counters an oracle has no use for stay
/// zero, so sweep totals add up across oracles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Oracle violations, in firing order (empty on agreement).
    pub violations: Vec<Violation>,
    /// Events consumed: engine events dispatched, or trace events applied.
    pub events: u64,
    /// Oracle checks evaluated.
    pub checks: u64,
    /// Messages delivered to their consumers.
    pub delivered: u64,
    /// Scheduler decisions taken.
    pub decisions: u64,
}

/// One randomized, shrinkable, replayable oracle case.
///
/// A case owns everything its run depends on: how a seed becomes inputs
/// ([`generate`](Case::generate)), the event list delta debugging may
/// thin out ([`events`](Case::events) /
/// [`with_events`](Case::with_events)), the run under its oracles
/// ([`run`](Case::run)) and its own fields of the repro file
/// ([`to_value`](Case::to_value) / [`from_value`](Case::from_value)).
/// Event lists are stored verbatim, never regenerated, so a repro still
/// replays after a generator changes.
pub trait Case: Sized {
    /// The repro file's `kind` tag.
    const KIND: &'static str;
    /// One entry of the shrinkable event list.
    type Event: Clone;

    /// Draws the case for one fuzzing seed.
    fn generate(seed: u64) -> Self;
    /// The event list, in schedule order.
    fn events(&self) -> &[Self::Event];
    /// The same case over a different event list (the ddmin probe).
    fn with_events(&self, events: Vec<Self::Event>) -> Self;
    /// Runs the case to completion under its oracles. Deterministic: the
    /// same case yields the same [`Outcome`], violation for violation.
    fn run(&self) -> Outcome;
    /// The case's fields of the repro file, as a JSON object.
    fn to_value(&self) -> Value;
    /// Rebuilds the case from a repro object, ignoring the envelope's
    /// own fields.
    fn from_value(value: &Value) -> Result<Self, String>;
}

/// Serial-number (RFC 1982 style) strict less-than over `u32` sequence
/// numbers, matching the LTL engine's wraparound arithmetic.
pub fn seq_lt(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) < u32::MAX / 2
}

/// Serial-number less-or-equal.
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_arithmetic_handles_wraparound() {
        assert!(seq_lt(0, 1));
        assert!(seq_lt(u32::MAX, 0));
        assert!(seq_lt(u32::MAX - 1, 3));
        assert!(!seq_lt(1, 0));
        assert!(!seq_lt(5, 5));
        assert!(seq_le(5, 5));
        assert!(seq_le(u32::MAX, 2));
    }

    #[test]
    fn violation_display_includes_time_and_check() {
        let v = Violation {
            at: SimTime::from_nanos(1500),
            check: "ltl.window",
            detail: "expected 3, got 4".into(),
        };
        assert_eq!(v.to_string(), "[1500 ns] ltl.window: expected 3, got 4");
    }
}
