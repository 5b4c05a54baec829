//! Differential oracle for the elastic multi-tenant HaaS scheduler.
//!
//! [`ElasticSpec`]'s [`Case::generate`] draws a randomized tenant mix —
//! board count, offered load, class weights, hold times, chaos board
//! crashes — and its [`Case::run`] drives the real
//! [`haas::ElasticScheduler`] and the pure [`RefScheduler`] over the same
//! trace in lockstep, comparing
//! decision streams, placement snapshots and lease tables after *every*
//! event, plus event-granularity invariants on the real scheduler:
//!
//! * `lease.dup` — no region double-allocation: live leases and slot
//!   occupants are the same set, one slot per lease;
//! * `area.cap` — a lease never exceeds its region's ALM budget;
//! * `queue.fit` — a queued request never fits an idle region (the
//!   scheduler may not sit on free capacity);
//! * `preempt.inversion` — a queued request with an eligible lower-class
//!   victim and no reservation is a priority inversion;
//! * `evict.overdue` — an in-flight eviction never outlives its bounded
//!   window;
//! * `reclaim.class` — spot reclamation never kills a non-spot lease;
//! * `defrag.preserves` — migration keeps the lease's tenant, size,
//!   preemptibility and shell caps intact (the planted
//!   `--validate-oracle` bug trips exactly this);
//! * `index.rescan` — the real scheduler's derived indexes and counters
//!   equal a rebuild from its slots and lease table by full scan
//!   ([`haas::ElasticScheduler::indexes_match_rescan`]; release builds of
//!   the sweep check it here, debug builds also inside every mutator).
//!
//! Failing traces shrink through [`crate::shrink::shrink`] and serialize
//! as [`crate::repro::Repro`] JSON that replays byte-identically.

use crate::haas_ref::RefScheduler;
use crate::json::{
    addr_from_value, addr_to_value, array, as_object, as_uint, get_array, get_bool, get_str,
    get_u16, get_u32, get_u64, lookup, uint,
};
use crate::{Case, Outcome, Violation};
use catapult::elastic::{generate_trace, ElasticTraceConfig, MixWeights};
use dcsim::{SimDuration, SimRng, SimTime};
use haas::{Decision, ElasticConfig, LeaseEvent, LeaseEventKind, RegionLease, TenantClass};
use serde::Value;
use shell::tenant::{TenantCaps, TenantId};

/// One randomized differential-oracle case: a tenant-mix trace plus the
/// scheduler configuration it runs under.
#[derive(Debug, Clone)]
pub struct ElasticSpec {
    /// Generating seed.
    pub seed: u64,
    /// Trace shape the events were drawn from.
    pub trace: ElasticTraceConfig,
    /// Scheduler knobs for both implementations.
    pub sched: ElasticConfig,
    /// Per-board region carve.
    pub region_alms: Vec<u32>,
    /// The event trace (replayable verbatim; ddmin shrinks this).
    pub events: Vec<LeaseEvent>,
    /// Plant the defrag cap-dropping bug in the real scheduler.
    pub plant_defrag_bug: bool,
}

impl Case for ElasticSpec {
    const KIND: &'static str = "elastic";
    type Event = LeaseEvent;

    /// Draws a randomized spec: board count, load, mix, hold time, chaos
    /// rate and scheduler knobs all vary with the seed.
    fn generate(seed: u64) -> ElasticSpec {
        let mut rng = SimRng::seed_from(seed ^ 0x5EED_E1A5_71C5_0B01);
        let trace = ElasticTraceConfig {
            seed,
            boards: 3 + rng.index(6) as u16,
            horizon: SimDuration::from_secs(30),
            load: rng.uniform_range(0.6, 2.0),
            mix: MixWeights::PRESETS[rng.index(MixWeights::PRESETS.len())].1,
            mean_hold: SimDuration::from_millis(1_500 + rng.index(4_000) as u64),
            tenants: 8 + rng.index(17) as u32,
            fault_rate: if rng.chance(0.5) {
                rng.uniform_range(0.5, 3.0)
            } else {
                0.0
            },
        };
        let sched = ElasticConfig {
            eviction_window: SimDuration::from_millis(100 + rng.index(900) as u64),
            defrag_period: if rng.chance(0.8) {
                SimDuration::from_secs(1 + rng.index(9) as u64)
            } else {
                SimDuration::ZERO
            },
            spot_reserve_permille: if rng.chance(0.5) {
                100 + rng.index(300) as u32
            } else {
                0
            },
        };
        let events = generate_trace(&trace);
        ElasticSpec {
            seed,
            trace,
            sched,
            region_alms: catapult::elastic::standard_region_alms(),
            events,
            plant_defrag_bug: false,
        }
    }

    fn events(&self) -> &[LeaseEvent] {
        &self.events
    }

    fn with_events(&self, events: Vec<LeaseEvent>) -> ElasticSpec {
        ElasticSpec {
            events,
            ..self.clone()
        }
    }

    fn to_value(&self) -> Value {
        let sched = &self.sched;
        Value::Object(vec![
            uint("seed", self.seed),
            uint("boards", self.trace.boards),
            array("region_alms", &self.region_alms, |&a| Value::U64(a as u64)),
            uint("horizon_ns", self.trace.horizon.as_nanos()),
            uint("eviction_window_ns", sched.eviction_window.as_nanos()),
            uint("defrag_period_ns", sched.defrag_period.as_nanos()),
            uint("spot_reserve_permille", sched.spot_reserve_permille),
            ("planted".into(), Value::Bool(self.plant_defrag_bug)),
            array("events", &self.events, event_to_value),
        ])
    }

    /// The seed is provenance only: pool, knobs and events are all
    /// stored, and the trace shape beyond board count and horizon has
    /// no bearing on a run.
    fn from_value(value: &Value) -> Result<ElasticSpec, String> {
        let obj = as_object(value, "repro")?;
        let seed = get_u64(obj, "seed")?;
        let nanos = |key: &str| get_u64(obj, key).map(SimDuration::from_nanos);
        Ok(ElasticSpec {
            seed,
            trace: ElasticTraceConfig {
                seed,
                boards: get_u16(obj, "boards")?,
                horizon: nanos("horizon_ns")?,
                ..ElasticTraceConfig::default()
            },
            sched: ElasticConfig {
                eviction_window: nanos("eviction_window_ns")?,
                defrag_period: nanos("defrag_period_ns")?,
                spot_reserve_permille: get_u32(obj, "spot_reserve_permille")?,
            },
            region_alms: get_array(obj, "region_alms", |v| as_uint(v, "region_alms"))?,
            events: get_array(obj, "events", event_from_value)?,
            plant_defrag_bug: get_bool(obj, "planted")?,
        })
    }

    /// Runs the event list through both schedulers, checking the oracle
    /// after every event and once more after settling both to the trace
    /// horizon.
    fn run(&self) -> Outcome {
        let mut real = haas::ElasticScheduler::new(self.sched);
        let mut reference = RefScheduler::new(self.sched);
        for i in 0..self.trace.boards {
            let addr = catapult::elastic::board_addr(i);
            let _ = real.add_board(addr, &self.region_alms);
            reference.add_board(addr, &self.region_alms);
        }
        if self.plant_defrag_bug {
            real.set_debug_defrag_drop_caps(true);
        }

        let mut violations = Vec::new();
        let mut queued: Vec<(u64, TrackedReq)> = Vec::new();
        let horizon = SimTime::from_nanos(self.trace.horizon.as_nanos());

        for ev in &self.events {
            let before: Vec<RegionLease> = real.leases().cloned().collect();
            real.apply(ev);
            let d_ref = reference.apply(ev);
            track_queue(&mut queued, ev, real.last_decisions());
            check_step(
                self,
                &real,
                &reference,
                real.last_decisions(),
                &d_ref,
                &before,
                &queued,
                ev.at,
                &mut violations,
            );
            if violations.len() >= VIOLATIONS_CAP {
                break;
            }
        }
        if violations.len() < VIOLATIONS_CAP {
            // Settle trailing evictions and defrag boundaries; the planted
            // defrag bug often only fires here, after the last trace event.
            let before: Vec<RegionLease> = real.leases().cloned().collect();
            let start_ref = reference.decisions().len();
            real.advance_to(horizon);
            reference.advance_to(horizon);
            let d_ref = &reference.decisions()[start_ref..];
            drain_queue(&mut queued, real.last_decisions());
            check_step(
                self,
                &real,
                &reference,
                real.last_decisions(),
                d_ref,
                &before,
                &queued,
                horizon,
                &mut violations,
            );
        }
        Outcome {
            violations,
            events: self.events.len() as u64,
            decisions: real.decision_count(),
            ..Outcome::default()
        }
    }
}

/// Identity fields a defrag migration must preserve.
type LeaseIdentity = (TenantId, TenantClass, u32, bool, TenantCaps);

fn identity(l: &RegionLease) -> LeaseIdentity {
    (l.tenant, l.class, l.alms, l.preemptible, l.caps)
}

/// What the harness knows about an outstanding queued request.
#[derive(Debug, Clone, Copy)]
struct TrackedReq {
    class: TenantClass,
    alms: u32,
}

/// Stop collecting after this many violations: one is enough to fail a
/// seed, and ddmin probes only ask "still failing?".
const VIOLATIONS_CAP: usize = 16;

/// Maintains the harness's mirror of the wait queue from the event and
/// decision streams alone.
///
/// An accepted request always makes a decision that names it (grant,
/// queue or reject). One that makes none reused the id of a request still
/// queued or leased and was refused (`DuplicateRequest`), so it never
/// waits and the mirror does not count it.
fn track_queue(queued: &mut Vec<(u64, TrackedReq)>, ev: &LeaseEvent, decisions: &[Decision]) {
    if let LeaseEventKind::Request {
        req, class, alms, ..
    } = ev.kind
    {
        let accepted = decisions.iter().any(|d| {
            matches!(d, Decision::Grant { req: r, .. } | Decision::Queue { req: r }
                | Decision::Reject { req: r } if *r == req)
        });
        if accepted {
            queued.push((req, TrackedReq { class, alms }));
        }
    }
    drain_queue(queued, decisions);
}

/// Removes requests the decision stream settled (granted, rejected or
/// released) from the queue mirror.
fn drain_queue(queued: &mut Vec<(u64, TrackedReq)>, decisions: &[Decision]) {
    for d in decisions {
        match d {
            Decision::Grant { req, .. }
            | Decision::Reject { req }
            | Decision::Release { req, .. } => {
                queued.retain(|(r, _)| r != req);
            }
            _ => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_step(
    spec: &ElasticSpec,
    real: &haas::ElasticScheduler,
    reference: &RefScheduler,
    d_real: &[Decision],
    d_ref: &[Decision],
    before: &[RegionLease],
    queued: &[(u64, TrackedReq)],
    at: SimTime,
    out: &mut Vec<Violation>,
) {
    let fail = |out: &mut Vec<Violation>, check: &'static str, detail: String| {
        out.push(Violation { at, check, detail });
    };

    // Lock-step differential: decisions, placement, lease tables.
    if d_real != d_ref {
        fail(
            out,
            "oracle.decision",
            format!("real {d_real:?} != reference {d_ref:?}"),
        );
    }
    let p_real = real.placement();
    let p_ref = reference.placement();
    if p_real != p_ref {
        fail(
            out,
            "oracle.placement",
            format!("real {p_real:?} != reference {p_ref:?}"),
        );
    }
    let l_real: Vec<RegionLease> = real.leases().cloned().collect();
    let l_ref = reference.leases();
    if l_real != l_ref {
        fail(
            out,
            "oracle.lease",
            format!("real {l_real:?} != reference {l_ref:?}"),
        );
    }

    if let Err(detail) = real.indexes_match_rescan() {
        fail(out, "index.rescan", detail);
    }

    // Invariants on the real scheduler's observable state.
    for l in &l_real {
        let occupied = p_real
            .iter()
            .filter(|(_, occ, _)| *occ == Some(l.id))
            .count();
        if occupied != 1 {
            fail(
                out,
                "lease.dup",
                format!("lease {} occupies {occupied} regions", l.id),
            );
        }
        let region_alms = spec
            .region_alms
            .get(l.at.region as usize)
            .copied()
            .unwrap_or(0);
        if l.alms > region_alms {
            fail(
                out,
                "area.cap",
                format!(
                    "lease {} uses {} ALMs in a {region_alms}-ALM region",
                    l.id, l.alms
                ),
            );
        }
    }
    for (r, occ, _) in &p_real {
        if let Some(id) = occ {
            if !l_real.iter().any(|l| l.id == *id) {
                fail(
                    out,
                    "lease.dup",
                    format!("region {r} holds dead lease {id}"),
                );
            }
        }
    }

    for (req, info) in queued {
        let reserved = p_real
            .iter()
            .any(|(_, _, pending)| matches!(pending, Some((_, Some(r))) if r == req));
        for (r, occ, pending) in &p_real {
            // Board up/down comes from the reference: its flag is part of
            // the contract the placement comparison above holds it to.
            if !reference.board_is_up(r.board) || pending.is_some() {
                continue;
            }
            let region_alms = spec
                .region_alms
                .get(r.region as usize)
                .copied()
                .unwrap_or(0);
            if region_alms < info.alms {
                continue;
            }
            match occ {
                None => fail(
                    out,
                    "queue.fit",
                    format!("req {req} ({} ALMs) queued while {r} sits free", info.alms),
                ),
                Some(id) => {
                    if reserved {
                        continue;
                    }
                    let Some(l) = l_real.iter().find(|l| l.id == *id) else {
                        continue;
                    };
                    if l.preemptible && l.class.rank() > info.class.rank() {
                        fail(
                            out,
                            "preempt.inversion",
                            format!(
                                "queued {:?} req {req} has eligible {:?} victim {} in {r} \
                                 but no reservation",
                                info.class, l.class, l.id
                            ),
                        );
                    }
                }
            }
        }
    }
    for (r, _, pending) in &p_real {
        if let Some((free_at, _)) = pending {
            if *free_at < at.as_nanos() {
                fail(
                    out,
                    "evict.overdue",
                    format!("eviction of {r} due at {free_at} ns still pending at {at}"),
                );
            }
        }
    }
    for d in d_real {
        match d {
            Decision::Reclaim { victim, .. } => {
                if let Some(l) = before.iter().find(|l| l.id == *victim) {
                    if l.class != TenantClass::Spot {
                        fail(
                            out,
                            "reclaim.class",
                            format!("reclaimed lease {victim} is {:?}, not spot", l.class),
                        );
                    }
                }
            }
            Decision::Migrate { lease, .. } => {
                // A lease granted earlier in this very batch has no
                // `before` entry, and one released/lost later in the
                // batch has no `after` entry — both are legitimate, so
                // identity is only compared when both snapshots hold it.
                let was = before.iter().find(|l| l.id == *lease);
                let now = l_real.iter().find(|l| l.id == *lease);
                if let (Some(w), Some(n)) = (was, now) {
                    if identity(w) != identity(n) {
                        fail(
                            out,
                            "defrag.preserves",
                            format!(
                                "migrated lease {lease} changed identity: {:?} -> {:?}",
                                identity(w),
                                identity(n)
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

fn class_from_name(s: &str) -> Result<TenantClass, String> {
    TenantClass::ALL
        .into_iter()
        .find(|c| c.label() == s)
        .ok_or_else(|| format!("unknown tenant class {s:?}"))
}

fn event_to_value(event: &LeaseEvent) -> Value {
    let mut fields = vec![("at_ns".into(), Value::U64(event.at.as_nanos()))];
    let kind = match &event.kind {
        LeaseEventKind::Request {
            req,
            tenant,
            class,
            alms,
            preemptible,
            caps,
        } => {
            fields.push(("req".into(), Value::U64(*req)));
            fields.push(("tenant".into(), Value::U64(tenant.0 as u64)));
            fields.push(("class".into(), Value::Str(class.label().into())));
            fields.push(("alms".into(), Value::U64(*alms as u64)));
            fields.push(("preemptible".into(), Value::Bool(*preemptible)));
            fields.push(("er_mbps".into(), Value::U64(caps.er_mbps as u64)));
            fields.push(("ltl_credits".into(), Value::U64(caps.ltl_credits as u64)));
            "request"
        }
        LeaseEventKind::Release { req } => {
            fields.push(("req".into(), Value::U64(*req)));
            "release"
        }
        LeaseEventKind::BoardDown { board } => {
            fields.push(("board".into(), addr_to_value(*board)));
            "board_down"
        }
        LeaseEventKind::BoardUp { board } => {
            fields.push(("board".into(), addr_to_value(*board)));
            "board_up"
        }
    };
    fields.insert(1, ("kind".into(), Value::Str(kind.into())));
    Value::Object(fields)
}

fn event_from_value(value: &Value) -> Result<LeaseEvent, String> {
    let obj = as_object(value, "event")?;
    let at = SimTime::from_nanos(get_u64(obj, "at_ns")?);
    let kind = match get_str(obj, "kind")? {
        "request" => LeaseEventKind::Request {
            req: get_u64(obj, "req")?,
            tenant: TenantId(get_u32(obj, "tenant")?),
            class: class_from_name(get_str(obj, "class")?)?,
            alms: get_u32(obj, "alms")?,
            preemptible: get_bool(obj, "preemptible")?,
            caps: TenantCaps {
                er_mbps: get_u32(obj, "er_mbps")?,
                ltl_credits: get_u32(obj, "ltl_credits")?,
            },
        },
        "release" => LeaseEventKind::Release {
            req: get_u64(obj, "req")?,
        },
        "board_down" => LeaseEventKind::BoardDown {
            board: addr_from_value(lookup(obj, "board")?, "board")?,
        },
        "board_up" => LeaseEventKind::BoardUp {
            board: addr_from_value(lookup(obj, "board")?, "board")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(LeaseEvent { at, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repro::tests::round_trip_and_replay;
    use crate::repro::Repro;
    use dcnet::NodeAddr;

    #[test]
    fn clean_seeds_produce_no_violations() {
        for seed in 0..12u64 {
            let outcome = ElasticSpec::generate(seed).run();
            assert!(
                outcome.violations.is_empty(),
                "seed {seed}: {:?}",
                outcome.violations.first()
            );
            assert!(outcome.decisions > 0, "seed {seed} produced no decisions");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = ElasticSpec::generate(3);
        assert_eq!(spec.run(), spec.run());
    }

    #[test]
    fn planted_defrag_bug_is_caught_and_shrinks_small() {
        // Find a seed where defrag actually migrates something.
        let spec = (0..32u64)
            .map(|seed| ElasticSpec {
                plant_defrag_bug: true,
                ..ElasticSpec::generate(seed)
            })
            .find(|spec| !spec.run().violations.is_empty())
            .expect("32 seeds never migrated a lease");
        assert!(spec
            .run()
            .violations
            .iter()
            .any(|v| v.check == "defrag.preserves" || v.check == "oracle.lease"));
        let repro = round_trip_and_replay(&spec, "request");
        assert!(
            repro.case.events.len() <= 5,
            "planted bug should shrink to <=5 events, got {}",
            repro.case.events.len()
        );
    }

    /// A clean case whose trace holds every event kind.
    fn every_event_kind() -> ElasticSpec {
        let events = vec![
            LeaseEvent {
                at: SimTime::from_micros(5),
                kind: LeaseEventKind::Request {
                    req: 1,
                    tenant: TenantId(3),
                    class: TenantClass::Spot,
                    alms: 12_345,
                    preemptible: true,
                    caps: TenantCaps {
                        er_mbps: 777,
                        ltl_credits: 21,
                    },
                },
            },
            LeaseEvent {
                at: SimTime::from_micros(6),
                kind: LeaseEventKind::Release { req: 1 },
            },
            LeaseEvent {
                at: SimTime::from_micros(7),
                kind: LeaseEventKind::BoardDown {
                    board: NodeAddr::new(0, 0, 2),
                },
            },
            LeaseEvent {
                at: SimTime::from_micros(8),
                kind: LeaseEventKind::BoardUp {
                    board: NodeAddr::new(0, 0, 2),
                },
            },
        ];
        let mut spec = ElasticSpec::generate(1).with_events(events);
        spec.trace.boards = 4;
        spec
    }

    #[test]
    fn repro_json_round_trips_every_event_kind() {
        let spec = every_event_kind();
        let json = round_trip_and_replay(&spec, "board_down").to_json();
        let parsed = Repro::<ElasticSpec>::parse(&json).unwrap().case;
        assert_eq!(parsed.trace.boards, spec.trace.boards);
        assert_eq!(parsed.sched, spec.sched);
        assert_eq!(parsed.region_alms, spec.region_alms);
    }

    #[test]
    fn malformed_repros_are_rejected() {
        let json = round_trip_and_replay(&every_event_kind(), "request").to_json();
        // A number too wide for its field is an error naming the field,
        // never a silent wrap: u16, u32 and a u32 array element.
        for (field, from, to) in [
            ("boards", "\"boards\": 4,", "\"boards\": 70000,"),
            ("alms", "\"alms\": 12345,", "\"alms\": 4294967296,"),
            ("region_alms", "    24147,", "    4294967296,"),
        ] {
            assert!(json.contains(from), "{field}: sample lacks {from:?}");
            let err = Repro::<ElasticSpec>::parse(&json.replacen(from, to, 1)).unwrap_err();
            assert!(err.starts_with(field), "{field}: {err}");
        }
    }
}
