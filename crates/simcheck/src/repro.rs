//! Minimal-reproduction serialization and replay.
//!
//! A [`ReproSpec`] captures everything a failing fuzz case depends on —
//! mode, seed, tie-break salt, workload shape and the (shrunk) fault
//! plan — as JSON. Replaying the spec re-runs the identical simulation:
//! same seed, same salt, same plan, therefore the same event sequence
//! and the same violations, byte for byte. Parsing goes through
//! [`telemetry::json::parse`], the workspace's single JSON parser.

use crate::json::{addr_from_value, addr_to_value, as_object, get_str, get_u16, get_u64, lookup};
use crate::scenario::{self, ScenarioSpec};
use crate::session::{self, SessionSpec};
use crate::Violation;
use catapult::chaos::{FaultEvent, FaultKind, FaultPlan};
use dcsim::{SimDuration, SimTime};
use serde::Value;
use shell::ltl::LtlMode;

/// Which harness the failing case came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReproMode {
    /// Differential LTL session ([`session::run_session`]).
    Session,
    /// Whole-cluster invariant scenario ([`scenario::run_scenario`]).
    Cluster,
}

impl ReproMode {
    fn name(self) -> &'static str {
        match self {
            ReproMode::Session => "session",
            ReproMode::Cluster => "cluster",
        }
    }

    fn parse(s: &str) -> Result<ReproMode, String> {
        match s {
            "session" => Ok(ReproMode::Session),
            "cluster" => Ok(ReproMode::Cluster),
            other => Err(format!("unknown repro mode {other:?}")),
        }
    }
}

/// A self-contained, replayable failing fuzz case.
#[derive(Debug, Clone)]
pub struct ReproSpec {
    /// Originating harness.
    pub mode: ReproMode,
    /// Engine seed.
    pub seed: u64,
    /// Tie-break salt.
    pub salt: u64,
    /// Transport mode of the failing session (go-back-N for cluster
    /// cases).
    pub transport: LtlMode,
    /// Bug injection (sessions only): retransmissions to lose.
    pub lose_retransmits: u32,
    /// Bug injection (selective-repeat sessions only): SACK bitmaps to
    /// truncate.
    pub omit_sacks: u32,
    /// The (shrunk) fault schedule.
    pub events: Vec<FaultEvent>,
    /// First violation of the original run, for the reader.
    pub first_violation: String,
}

impl ReproSpec {
    /// Captures a failing session case.
    pub fn from_session(spec: &SessionSpec, violations: &[Violation]) -> ReproSpec {
        ReproSpec {
            mode: ReproMode::Session,
            seed: spec.seed,
            salt: spec.salt,
            transport: spec.mode,
            lose_retransmits: spec.lose_retransmits,
            omit_sacks: spec.omit_sacks,
            events: spec.plan.events.clone(),
            first_violation: violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default(),
        }
    }

    /// Captures a failing cluster case.
    pub fn from_scenario(spec: &ScenarioSpec, violations: &[Violation]) -> ReproSpec {
        ReproSpec {
            mode: ReproMode::Cluster,
            seed: spec.seed,
            salt: spec.salt,
            transport: LtlMode::GoBackN,
            lose_retransmits: 0,
            omit_sacks: 0,
            events: spec.plan.events.clone(),
            first_violation: violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default(),
        }
    }

    /// Rebuilds the harness spec and replays it, returning the
    /// violations observed (which must match the captured failure on a
    /// healthy checkout).
    pub fn replay(&self) -> Vec<Violation> {
        match self.mode {
            ReproMode::Session => {
                let mut spec = SessionSpec::generate(self.seed);
                spec.salt = self.salt;
                spec.mode = self.transport;
                spec.lose_retransmits = self.lose_retransmits;
                spec.omit_sacks = self.omit_sacks;
                spec.plan = FaultPlan {
                    events: self.events.clone(),
                };
                session::run_session(&spec).violations
            }
            ReproMode::Cluster => {
                let mut spec = ScenarioSpec::generate(self.seed);
                spec.salt = self.salt;
                spec.plan = FaultPlan {
                    events: self.events.clone(),
                };
                scenario::run_scenario(&spec).violations
            }
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        // The vendored serde stub has no blanket `impl Serialize for
        // Value`; a thin adapter hands the tree straight through.
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
            ("mode".into(), Value::Str(self.mode.name().into())),
            ("seed".into(), Value::U64(self.seed)),
            ("salt".into(), Value::U64(self.salt)),
            ("transport".into(), Value::Str(self.transport.name().into())),
            (
                "lose_retransmits".into(),
                Value::U64(self.lose_retransmits as u64),
            ),
            ("omit_sacks".into(), Value::U64(self.omit_sacks as u64)),
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

    /// Parses a spec back from JSON.
    pub fn parse(text: &str) -> Result<ReproSpec, String> {
        let value = telemetry::json::parse(text)?;
        let obj = as_object(&value, "repro")?;
        let events = match lookup(obj, "events")? {
            Value::Array(items) => items
                .iter()
                .map(event_from_value)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("events: expected an array".into()),
        };
        let transport = get_str(obj, "transport")?;
        Ok(ReproSpec {
            mode: ReproMode::parse(get_str(obj, "mode")?)?,
            seed: get_u64(obj, "seed")?,
            salt: get_u64(obj, "salt")?,
            transport: LtlMode::parse(transport)
                .ok_or_else(|| format!("unknown transport mode {transport:?}"))?,
            lose_retransmits: get_u64(obj, "lose_retransmits")? as u32,
            omit_sacks: get_u64(obj, "omit_sacks")? as u32,
            events,
            first_violation: get_str(obj, "first_violation")?.to_string(),
        })
    }
}

fn event_to_value(event: &FaultEvent) -> Value {
    let mut fields = vec![("at_ns".into(), Value::U64(event.at.as_nanos()))];
    let kind = match event.kind {
        FaultKind::LinkFlap { node, down } => {
            fields.push(("node".into(), addr_to_value(node)));
            fields.push(("down_ns".into(), Value::U64(down.as_nanos())));
            "link_flap"
        }
        FaultKind::TorCrash { pod, tor, reboot } => {
            fields.push(("pod".into(), Value::U64(pod as u64)));
            fields.push(("tor".into(), Value::U64(tor as u64)));
            fields.push(("reboot_ns".into(), Value::U64(reboot.as_nanos())));
            "tor_crash"
        }
        FaultKind::CorruptBurst { node, frames } => {
            fields.push(("node".into(), addr_to_value(node)));
            fields.push(("frames".into(), Value::U64(frames as u64)));
            "corrupt_burst"
        }
        FaultKind::FpgaHang { node, duration } => {
            fields.push(("node".into(), addr_to_value(node)));
            fields.push(("duration_ns".into(), Value::U64(duration.as_nanos())));
            "fpga_hang"
        }
        FaultKind::HostStall { node, duration } => {
            fields.push(("node".into(), addr_to_value(node)));
            fields.push(("duration_ns".into(), Value::U64(duration.as_nanos())));
            "host_stall"
        }
        FaultKind::BadImage { node } => {
            fields.push(("node".into(), addr_to_value(node)));
            "bad_image"
        }
        FaultKind::LossyLink {
            node,
            rate_ppm,
            duration,
        } => {
            fields.push(("node".into(), addr_to_value(node)));
            fields.push(("rate_ppm".into(), Value::U64(rate_ppm as u64)));
            fields.push(("duration_ns".into(), Value::U64(duration.as_nanos())));
            "lossy_link"
        }
    };
    fields.insert(1, ("kind".into(), Value::Str(kind.into())));
    Value::Object(fields)
}

fn event_from_value(value: &Value) -> Result<FaultEvent, String> {
    let obj = as_object(value, "event")?;
    let at = SimTime::from_nanos(get_u64(obj, "at_ns")?);
    let node = || addr_from_value(lookup(obj, "node")?, "node");
    let dur = |key: &str| get_u64(obj, key).map(SimDuration::from_nanos);
    let kind = match get_str(obj, "kind")? {
        "link_flap" => FaultKind::LinkFlap {
            node: node()?,
            down: dur("down_ns")?,
        },
        "tor_crash" => FaultKind::TorCrash {
            pod: get_u16(obj, "pod")?,
            tor: get_u16(obj, "tor")?,
            reboot: dur("reboot_ns")?,
        },
        "corrupt_burst" => FaultKind::CorruptBurst {
            node: node()?,
            frames: get_u64(obj, "frames")? as u32,
        },
        "fpga_hang" => FaultKind::FpgaHang {
            node: node()?,
            duration: dur("duration_ns")?,
        },
        "host_stall" => FaultKind::HostStall {
            node: node()?,
            duration: dur("duration_ns")?,
        },
        "bad_image" => FaultKind::BadImage { node: node()? },
        "lossy_link" => FaultKind::LossyLink {
            node: node()?,
            rate_ppm: get_u64(obj, "rate_ppm")? as u32,
            duration: dur("duration_ns")?,
        },
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    Ok(FaultEvent { at, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnet::NodeAddr;

    fn sample() -> ReproSpec {
        ReproSpec {
            mode: ReproMode::Session,
            seed: 42,
            salt: 7,
            transport: LtlMode::SelectiveRepeat,
            lose_retransmits: 1,
            omit_sacks: 2,
            events: vec![
                FaultEvent {
                    at: SimTime::from_micros(100),
                    kind: FaultKind::LinkFlap {
                        node: NodeAddr::new(0, 1, 0),
                        down: SimDuration::from_micros(300),
                    },
                },
                FaultEvent {
                    at: SimTime::from_micros(200),
                    kind: FaultKind::TorCrash {
                        pod: 0,
                        tor: 1,
                        reboot: SimDuration::from_micros(900),
                    },
                },
                FaultEvent {
                    at: SimTime::from_micros(300),
                    kind: FaultKind::CorruptBurst {
                        node: NodeAddr::new(0, 0, 0),
                        frames: 3,
                    },
                },
                FaultEvent {
                    at: SimTime::from_micros(400),
                    kind: FaultKind::BadImage {
                        node: NodeAddr::new(0, 1, 0),
                    },
                },
                FaultEvent {
                    at: SimTime::from_micros(500),
                    kind: FaultKind::LossyLink {
                        node: NodeAddr::new(0, 1, 0),
                        rate_ppm: 20_000,
                        duration: SimDuration::from_micros(600),
                    },
                },
            ],
            first_violation: "[100 ns] ltl.submit: example".into(),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let spec = sample();
        let json = spec.to_json();
        let parsed = ReproSpec::parse(&json).unwrap();
        assert_eq!(parsed.mode, spec.mode);
        assert_eq!(parsed.seed, spec.seed);
        assert_eq!(parsed.salt, spec.salt);
        assert_eq!(parsed.transport, spec.transport);
        assert_eq!(parsed.lose_retransmits, spec.lose_retransmits);
        assert_eq!(parsed.omit_sacks, spec.omit_sacks);
        assert_eq!(parsed.events, spec.events);
        assert_eq!(parsed.first_violation, spec.first_violation);
        // Serialization is canonical: a second round trip is byte-equal.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(ReproSpec::parse("{}").is_err());
        assert!(ReproSpec::parse("[1, 2]").is_err());
        let bad_kind = sample().to_json().replace("link_flap", "meteor_strike");
        assert!(ReproSpec::parse(&bad_kind).is_err());
    }
}
