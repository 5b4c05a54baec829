//! Differential oracle for the elastic multi-tenant HaaS scheduler.
//!
//! [`ElasticSpec::generate`] draws a randomized tenant mix — board count,
//! offered load, class weights, hold times, chaos board crashes — and
//! [`run_elastic`] drives the real [`haas::ElasticScheduler`] and the
//! pure [`RefScheduler`] over the same trace in lockstep, comparing
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
//! Failing traces shrink through [`crate::shrink::ddmin`] and serialize
//! as [`ElasticRepro`] JSON that replays byte-identically.

use crate::haas_ref::RefScheduler;
use crate::json::{addr_from_value, addr_to_value, as_object, get_bool, get_str, get_u64, lookup};
use crate::Violation;
use catapult::elastic::{generate_trace, ElasticTraceConfig, MixWeights};
use dcnet::NodeAddr;
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

impl ElasticSpec {
    /// Draws a randomized spec: board count, load, mix, hold time, chaos
    /// rate and scheduler knobs all vary with the seed.
    pub fn generate(seed: u64) -> ElasticSpec {
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
}

/// Result of one differential run.
#[derive(Debug, Clone)]
pub struct ElasticOutcome {
    /// Oracle violations, in firing order (empty on agreement).
    pub violations: Vec<Violation>,
    /// Real-scheduler decision count.
    pub decisions: u64,
    /// Real-scheduler decision fingerprint.
    pub fingerprint: u64,
}

/// Runs the spec's own event list through both schedulers.
pub fn run_elastic(spec: &ElasticSpec) -> ElasticOutcome {
    run_elastic_events(spec, &spec.events)
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

/// Runs an explicit event list (the ddmin probe path) through both
/// schedulers, checking the oracle after every event and once more after
/// settling both to the trace horizon.
pub fn run_elastic_events(spec: &ElasticSpec, events: &[LeaseEvent]) -> ElasticOutcome {
    let mut real = haas::ElasticScheduler::new(spec.sched);
    let mut reference = RefScheduler::new(spec.sched);
    for i in 0..spec.trace.boards {
        let addr = catapult::elastic::board_addr(i);
        let _ = real.add_board(addr, &spec.region_alms);
        reference.add_board(addr, &spec.region_alms);
    }
    if spec.plant_defrag_bug {
        real.set_debug_defrag_drop_caps(true);
    }

    let mut violations = Vec::new();
    let mut queued: Vec<(u64, TrackedReq)> = Vec::new();
    let horizon = SimTime::from_nanos(spec.trace.horizon.as_nanos());
    let cap = violations_cap();

    for ev in events {
        let before: Vec<RegionLease> = real.leases().cloned().collect();
        let start_real = real.decisions().len();
        real.apply(ev);
        let d_real = &real.decisions()[start_real..];
        let d_ref = reference.apply(ev);
        track_queue(&mut queued, ev, d_real);
        check_step(
            spec,
            &real,
            &reference,
            d_real,
            &d_ref,
            &before,
            &queued,
            ev.at,
            &mut violations,
        );
        if violations.len() >= cap {
            break;
        }
    }
    if violations.len() < cap {
        // Settle trailing evictions and defrag boundaries; the planted
        // defrag bug often only fires here, after the last trace event.
        let before: Vec<RegionLease> = real.leases().cloned().collect();
        let start_real = real.decisions().len();
        let start_ref = reference.decisions().len();
        real.advance_to(horizon);
        reference.advance_to(horizon);
        let d_real = real.decisions()[start_real..].to_vec();
        let d_ref = reference.decisions()[start_ref..].to_vec();
        drain_queue(&mut queued, &d_real);
        check_step(
            spec,
            &real,
            &reference,
            &d_real,
            &d_ref,
            &before,
            &queued,
            horizon,
            &mut violations,
        );
    }
    ElasticOutcome {
        violations,
        decisions: real.decisions().len() as u64,
        fingerprint: real.fingerprint(),
    }
}

/// Stop collecting after this many violations: one is enough to fail a
/// seed, and ddmin probes only ask "still failing?".
fn violations_cap() -> usize {
    16
}

/// Maintains the harness's mirror of the wait queue from the event and
/// decision streams alone.
fn track_queue(queued: &mut Vec<(u64, TrackedReq)>, ev: &LeaseEvent, decisions: &[Decision]) {
    if let LeaseEventKind::Request {
        req, class, alms, ..
    } = ev.kind
    {
        queued.push((req, TrackedReq { class, alms }));
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

    // Board up/down state, reconstructed from the placement-bearing
    // reference (its flag is part of the compared contract).
    let board_up = |addr: NodeAddr| -> bool {
        // A board is down iff its regions can hold nothing; the harness
        // tracks this through the real scheduler's own pool arithmetic:
        // BoardDown events zero the board's contribution. Reconstruct
        // from decisions instead: cheaper to ask the reference.
        reference.board_is_up(addr)
    };
    for (req, info) in queued {
        let reserved = p_real
            .iter()
            .any(|(_, _, pending)| matches!(pending, Some((_, Some(r))) if r == req));
        for (r, occ, pending) in &p_real {
            if !board_up(r.board) || pending.is_some() {
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

/// A self-contained, replayable failing elastic case.
#[derive(Debug, Clone)]
pub struct ElasticRepro {
    /// Generating seed (provenance only; events are stored verbatim).
    pub seed: u64,
    /// Board count.
    pub boards: u16,
    /// Per-board region carve.
    pub region_alms: Vec<u32>,
    /// Settle horizon, ns.
    pub horizon_ns: u64,
    /// Scheduler knobs.
    pub sched: ElasticConfig,
    /// Whether the defrag bug was planted.
    pub planted: bool,
    /// The (shrunk) event trace.
    pub events: Vec<LeaseEvent>,
    /// First violation of the original run, for the reader.
    pub first_violation: String,
}

impl ElasticRepro {
    /// Captures a failing case with its (shrunk) event list.
    pub fn capture(spec: &ElasticSpec, events: &[LeaseEvent], violations: &[Violation]) -> Self {
        ElasticRepro {
            seed: spec.seed,
            boards: spec.trace.boards,
            region_alms: spec.region_alms.clone(),
            horizon_ns: spec.trace.horizon.as_nanos(),
            sched: spec.sched,
            planted: spec.plant_defrag_bug,
            events: events.to_vec(),
            first_violation: violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default(),
        }
    }

    /// Rebuilds the harness inputs and replays, returning the violations
    /// observed (identical to the captured run on a healthy checkout).
    pub fn replay(&self) -> Vec<Violation> {
        let spec = ElasticSpec {
            seed: self.seed,
            trace: ElasticTraceConfig {
                seed: self.seed,
                boards: self.boards,
                horizon: SimDuration::from_nanos(self.horizon_ns),
                ..ElasticTraceConfig::default()
            },
            sched: self.sched,
            region_alms: self.region_alms.clone(),
            events: self.events.clone(),
            plant_defrag_bug: self.planted,
        };
        run_elastic(&spec).violations
    }

    /// Serializes to pretty JSON (canonical: re-serializing a parse is
    /// byte-identical).
    pub fn to_json(&self) -> String {
        struct Tree(Value);
        impl serde::Serialize for Tree {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        serde_json::to_string_pretty(&Tree(self.to_value())).expect("value tree is finite")
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".into(), Value::Str("elastic".into())),
            ("seed".into(), Value::U64(self.seed)),
            ("boards".into(), Value::U64(self.boards as u64)),
            (
                "region_alms".into(),
                Value::Array(
                    self.region_alms
                        .iter()
                        .map(|&a| Value::U64(a as u64))
                        .collect(),
                ),
            ),
            ("horizon_ns".into(), Value::U64(self.horizon_ns)),
            (
                "eviction_window_ns".into(),
                Value::U64(self.sched.eviction_window.as_nanos()),
            ),
            (
                "defrag_period_ns".into(),
                Value::U64(self.sched.defrag_period.as_nanos()),
            ),
            (
                "spot_reserve_permille".into(),
                Value::U64(self.sched.spot_reserve_permille as u64),
            ),
            ("planted".into(), Value::Bool(self.planted)),
            (
                "events".into(),
                Value::Array(self.events.iter().map(event_to_value).collect()),
            ),
            (
                "first_violation".into(),
                Value::Str(self.first_violation.clone()),
            ),
        ])
    }

    /// Parses a repro back from JSON.
    pub fn parse(text: &str) -> Result<ElasticRepro, String> {
        let value = telemetry::json::parse(text)?;
        let obj = as_object(&value, "repro")?;
        if get_str(obj, "kind")? != "elastic" {
            return Err("kind: expected \"elastic\"".into());
        }
        let region_alms = match lookup(obj, "region_alms")? {
            Value::Array(items) => items
                .iter()
                .map(|v| match v {
                    Value::U64(n) => Ok(*n as u32),
                    _ => Err("region_alms: expected unsigned integers".to_string()),
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("region_alms: expected an array".into()),
        };
        let events = match lookup(obj, "events")? {
            Value::Array(items) => items
                .iter()
                .map(event_from_value)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("events: expected an array".into()),
        };
        Ok(ElasticRepro {
            seed: get_u64(obj, "seed")?,
            boards: get_u64(obj, "boards")? as u16,
            region_alms,
            horizon_ns: get_u64(obj, "horizon_ns")?,
            sched: ElasticConfig {
                eviction_window: SimDuration::from_nanos(get_u64(obj, "eviction_window_ns")?),
                defrag_period: SimDuration::from_nanos(get_u64(obj, "defrag_period_ns")?),
                spot_reserve_permille: get_u64(obj, "spot_reserve_permille")? as u32,
            },
            planted: get_bool(obj, "planted")?,
            events,
            first_violation: get_str(obj, "first_violation")?.to_string(),
        })
    }
}

fn class_name(class: TenantClass) -> &'static str {
    class.label()
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
            fields.push(("class".into(), Value::Str(class_name(*class).into())));
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
            tenant: TenantId(get_u64(obj, "tenant")? as u32),
            class: class_from_name(get_str(obj, "class")?)?,
            alms: get_u64(obj, "alms")? as u32,
            preemptible: get_bool(obj, "preemptible")?,
            caps: TenantCaps {
                er_mbps: get_u64(obj, "er_mbps")? as u32,
                ltl_credits: get_u64(obj, "ltl_credits")? as u32,
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
    use crate::shrink::ddmin;

    #[test]
    fn clean_seeds_produce_no_violations() {
        for seed in 0..12u64 {
            let spec = ElasticSpec::generate(seed);
            let outcome = run_elastic(&spec);
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
        let a = run_elastic(&spec);
        let b = run_elastic(&spec);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.decisions, b.decisions);
    }

    #[test]
    fn planted_defrag_bug_is_caught_and_shrinks_small() {
        // Find a seed where defrag actually migrates something.
        let mut caught = None;
        for seed in 0..32u64 {
            let mut spec = ElasticSpec::generate(seed);
            spec.plant_defrag_bug = true;
            let outcome = run_elastic(&spec);
            if !outcome.violations.is_empty() {
                caught = Some((spec, outcome));
                break;
            }
        }
        let (spec, outcome) = caught.expect("32 seeds never migrated a lease");
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.check == "defrag.preserves" || v.check == "oracle.lease"));
        let minimal = ddmin(&spec.events, |candidate| {
            !run_elastic_events(&spec, candidate).violations.is_empty()
        });
        assert!(
            minimal.len() <= 5,
            "planted bug should shrink to <=5 events, got {}",
            minimal.len()
        );
        // The shrunk repro replays byte-identically.
        let violations = run_elastic_events(&spec, &minimal).violations;
        let shrunk = ElasticSpec {
            events: minimal.clone(),
            ..spec.clone()
        };
        let repro = ElasticRepro::capture(&shrunk, &minimal, &violations);
        let json = repro.to_json();
        let parsed = ElasticRepro::parse(&json).unwrap();
        assert_eq!(parsed.to_json(), json, "canonical serialization");
        assert_eq!(parsed.replay(), violations, "replay reproduces exactly");
    }

    #[test]
    fn repro_json_round_trips_every_event_kind() {
        let spec = ElasticSpec::generate(1);
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
        let repro = ElasticRepro::capture(&spec, &events, &[]);
        let parsed = ElasticRepro::parse(&repro.to_json()).unwrap();
        assert_eq!(parsed.events, events);
        assert_eq!(parsed.boards, spec.trace.boards);
        assert_eq!(parsed.sched, spec.sched);
    }

    #[test]
    fn malformed_repros_are_rejected() {
        assert!(ElasticRepro::parse("{}").is_err());
        assert!(ElasticRepro::parse("[]").is_err());
        let spec = ElasticSpec::generate(2);
        let repro = ElasticRepro::capture(&spec, &spec.events[..4.min(spec.events.len())], &[]);
        let bad = repro.to_json().replace("request", "summon");
        assert!(ElasticRepro::parse(&bad).is_err());
    }
}
