//! Delta-debugging reduction of failing event lists.
//!
//! Given an event list that makes an oracle fire and a closure that
//! re-runs the simulation, [`ddmin`] finds a 1-minimal sub-list: removing
//! any single remaining event makes the failure disappear. Because each
//! probe is a fully deterministic replay, the result is an exact minimal
//! reproduction, not a statistical one. Generic over the event type —
//! chaos [`catapult::chaos::FaultEvent`]s and elastic
//! [`haas::LeaseEvent`]s shrink through the same machinery: [`shrink`]
//! runs it over any [`Case`].

use crate::repro::Repro;
use crate::Case;

/// Shrinks a failing case's event list to a 1-minimal one that still
/// violates and captures the result, with the violations of the shrunk
/// run, as a [`Repro`]. `case.run()` must violate.
pub fn shrink<C: Case>(case: &C) -> Repro<C> {
    let minimal = ddmin(case.events(), |events| {
        !case
            .with_events(events.to_vec())
            .run()
            .violations
            .is_empty()
    });
    let shrunk = case.with_events(minimal);
    let violations = shrunk.run().violations;
    Repro::capture(shrunk, &violations)
}

/// Zeller–Hildebrandt ddmin over an event list. `still_fails` must return
/// `true` when the simulation run with the candidate event list still
/// exhibits the failure. Returns a 1-minimal failing sub-list (the input
/// itself must fail; this is debug-asserted by re-running it).
pub fn ddmin<T, F>(events: &[T], mut still_fails: F) -> Vec<T>
where
    T: Clone,
    F: FnMut(&[T]) -> bool,
{
    let mut cur: Vec<T> = events.to_vec();
    if cur.is_empty() {
        return cur;
    }
    let mut granularity = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            // Complement: everything except [start, end).
            let candidate: Vec<T> = cur[..start]
                .iter()
                .chain(cur[end..].iter())
                .cloned()
                .collect();
            if !candidate.is_empty() && still_fails(&candidate) {
                cur = candidate;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= cur.len() {
                break;
            }
            granularity = (granularity * 2).min(cur.len());
        }
    }
    // Final 1-minimality pass: try dropping each single event.
    let mut i = 0;
    while cur.len() > 1 && i < cur.len() {
        let mut candidate = cur.clone();
        candidate.remove(i);
        if still_fails(&candidate) {
            cur = candidate;
        } else {
            i += 1;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult::chaos::{FaultEvent, FaultKind};
    use dcnet::NodeAddr;
    use dcsim::{SimDuration, SimTime};

    fn flap(host: u16) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_micros(host as u64),
            kind: FaultKind::LinkFlap {
                node: NodeAddr::new(0, 0, host),
                down: SimDuration::from_micros(10),
            },
        }
    }

    fn hosts(events: &[FaultEvent]) -> Vec<u16> {
        events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::LinkFlap { node, .. } => Some(node.host),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn shrinks_to_the_single_culprit() {
        let events: Vec<FaultEvent> = (0..16).map(flap).collect();
        let mut probes = 0;
        let minimal = ddmin(&events, |candidate| {
            probes += 1;
            hosts(candidate).contains(&11)
        });
        assert_eq!(hosts(&minimal), vec![11]);
        assert!(probes < 64, "ddmin used {probes} probes for 16 events");
    }

    #[test]
    fn keeps_an_interacting_pair() {
        // Failure needs events 3 AND 12 together: ddmin must keep both.
        let events: Vec<FaultEvent> = (0..16).map(flap).collect();
        let minimal = ddmin(&events, |candidate| {
            let h = hosts(candidate);
            h.contains(&3) && h.contains(&12)
        });
        assert_eq!(hosts(&minimal), vec![3, 12]);
    }

    #[test]
    fn empty_input_stays_empty() {
        assert_eq!(ddmin::<FaultEvent, _>(&[], |_| true), Vec::new());
    }

    #[test]
    fn shrinks_non_copy_event_types() {
        // The elastic scheduler's trace events are Clone-not-Copy;
        // ddmin must reduce them identically.
        let events: Vec<String> = (0..8).map(|i| format!("ev{i}")).collect();
        let minimal = ddmin(&events, |c| c.iter().any(|e| e == "ev5"));
        assert_eq!(minimal, vec!["ev5".to_string()]);
    }
}
