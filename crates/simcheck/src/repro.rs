//! Minimal-reproduction serialization and replay.
//!
//! A [`Repro`] is the one envelope every shrinkable oracle writes: the
//! `kind` tag of its [`Case`], the (shrunk) case itself and the first
//! violation of the captured run, as JSON. The case serializes its own
//! fields — seed, tie-break salt, workload shape, the verbatim event
//! list — so replaying re-runs the identical simulation: same inputs,
//! therefore the same event sequence and the same violations, byte for
//! byte. Parsing goes through [`telemetry::json::parse`], the
//! workspace's single JSON parser. The chaos [`FaultEvent`] codec the
//! two fault-plan cases share lives here too.

use crate::json::{
    addr_from_value, addr_to_value, as_object, get_str, get_u16, get_u32, get_u64, lookup,
};
use crate::{Case, Violation};
use catapult::chaos::{FaultEvent, FaultKind};
use dcsim::{SimDuration, SimTime};
use serde::Value;

/// A self-contained, replayable failing case.
#[derive(Debug, Clone)]
pub struct Repro<C> {
    /// The (shrunk) case.
    pub case: C,
    /// First violation of the captured run, for the reader.
    pub first_violation: String,
}

impl<C: Case> Repro<C> {
    /// Captures a case with the violations its run produced.
    pub fn capture(case: C, violations: &[Violation]) -> Self {
        let first = violations.first();
        Repro {
            case,
            first_violation: first.map(|v| v.to_string()).unwrap_or_default(),
        }
    }

    /// Re-runs the case, returning the violations observed (which match
    /// the captured run on a healthy checkout).
    pub fn replay(&self) -> Vec<Violation> {
        self.case.run().violations
    }

    /// Serializes to pretty JSON: `kind`, the case's own fields, then
    /// `first_violation`. Canonical — re-serializing a parse is
    /// byte-identical.
    pub fn to_json(&self) -> String {
        let mut fields = vec![("kind".into(), Value::Str(C::KIND.into()))];
        if let Value::Object(case) = self.case.to_value() {
            fields.extend(case);
        }
        let first = Value::Str(self.first_violation.clone());
        fields.push(("first_violation".into(), first));
        serde_json::to_string_pretty(&Value::Object(fields)).expect("value tree is finite")
    }

    /// Parses a repro of this case's kind back from JSON.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = telemetry::json::parse(text)?;
        let obj = as_object(&value, "repro")?;
        let kind = get_str(obj, "kind")?;
        if kind != C::KIND {
            return Err(format!("kind: expected {:?}, found {kind:?}", C::KIND));
        }
        Ok(Repro {
            case: C::from_value(&value)?,
            first_violation: get_str(obj, "first_violation")?.to_string(),
        })
    }
}

/// The `kind` tag of a repro file, for callers that must pick the
/// [`Case`] type to [`Repro::parse`] it as.
pub fn kind_of(text: &str) -> Result<String, String> {
    let value = telemetry::json::parse(text)?;
    Ok(get_str(as_object(&value, "repro")?, "kind")?.to_string())
}

pub(crate) fn fault_event_to_value(event: &FaultEvent) -> Value {
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

pub(crate) fn fault_event_from_value(value: &Value) -> Result<FaultEvent, String> {
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
            frames: get_u32(obj, "frames")?,
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
            rate_ppm: get_u32(obj, "rate_ppm")?,
            duration: dur("duration_ns")?,
        },
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    Ok(FaultEvent { at, kind })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::session::SessionSpec;
    use crate::shrink::shrink;
    use shell::ltl::LtlMode;

    /// What every [`Case`]'s repro must uphold, asserted once. `case`
    /// should hold every event kind, `event_kind` being one of them:
    ///
    /// * serialization is canonical — parse → re-serialize is
    ///   byte-equal, so every field the case writes survives — and the
    ///   event list comes back entry for entry;
    /// * `{}`, `[]`, an unknown event kind and an unknown `kind` are
    ///   rejected;
    /// * replaying the parsed artifact yields exactly the captured
    ///   violations, after shrinking when the case fails (a planted bug).
    ///
    /// Returns the repro that was replayed.
    pub(crate) fn round_trip_and_replay<C>(case: &C, event_kind: &str) -> Repro<C>
    where
        C: Case + Clone,
        C::Event: PartialEq + core::fmt::Debug,
    {
        let violations = case.run().violations;
        let full = Repro::capture(case.clone(), &violations);
        let json = full.to_json();
        let parsed = Repro::<C>::parse(&json).expect("own artifact parses");
        assert_eq!(parsed.case.events(), case.events());
        assert_eq!(parsed.to_json(), json, "canonical serialization");

        assert!(json.contains(event_kind), "case lacks a {event_kind} event");
        for bad in [
            "{}".to_string(),
            "[]".to_string(),
            json.replace(event_kind, "meteor_strike"),
            json.replacen(C::KIND, "martian", 1),
        ] {
            assert!(Repro::<C>::parse(&bad).is_err(), "accepted {bad}");
        }

        let (repro, captured) = if violations.is_empty() {
            (full, violations)
        } else {
            let shrunk = shrink(case);
            let captured = shrunk.replay();
            assert!(!captured.is_empty(), "shrinking lost the violation");
            assert_eq!(shrunk.first_violation, captured[0].to_string());
            (shrunk, captured)
        };
        let reparsed = Repro::<C>::parse(&repro.to_json()).expect("own artifact parses");
        assert_eq!(reparsed.replay(), captured, "replay reproduces exactly");
        repro
    }

    /// One fault of every kind, on addresses sessions and scenarios
    /// both populate.
    pub(crate) fn every_fault_kind() -> Vec<FaultEvent> {
        let (a, b) = SessionSpec::endpoints();
        let us = SimDuration::from_micros;
        [
            FaultKind::LinkFlap {
                node: b,
                down: us(300),
            },
            FaultKind::TorCrash {
                pod: 0,
                tor: 1,
                reboot: us(900),
            },
            FaultKind::CorruptBurst { node: a, frames: 3 },
            FaultKind::FpgaHang {
                node: a,
                duration: us(250),
            },
            FaultKind::HostStall {
                node: b,
                duration: us(100),
            },
            FaultKind::BadImage { node: b },
            FaultKind::LossyLink {
                node: b,
                rate_ppm: 20_000,
                duration: us(600),
            },
        ]
        .into_iter()
        .zip(1..)
        .map(|(kind, i)| FaultEvent {
            at: SimTime::from_micros(100 * i),
            kind,
        })
        .collect()
    }

    fn sample() -> SessionSpec {
        SessionSpec {
            salt: 7,
            mode: LtlMode::SelectiveRepeat,
            lose_retransmits: 1,
            omit_sacks: 2,
            ..SessionSpec::generate(42).with_events(every_fault_kind())
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let spec = sample();
        let json = round_trip_and_replay(&spec, "link_flap").to_json();
        let parsed = Repro::<SessionSpec>::parse(&json).unwrap().case;
        assert_eq!(parsed.seed, spec.seed);
        assert_eq!(parsed.salt, spec.salt);
        assert_eq!(parsed.mode, spec.mode);
        assert_eq!(parsed.lose_retransmits, spec.lose_retransmits);
        assert_eq!(parsed.omit_sacks, spec.omit_sacks);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let healthy = SessionSpec {
            lose_retransmits: 0,
            omit_sacks: 0,
            ..sample()
        };
        let json = round_trip_and_replay(&healthy, "tor_crash").to_json();
        // A number too wide for its field is an error naming the field,
        // never a silent wrap: one case per width.
        for (field, from, to) in [
            ("frames", "\"frames\": 3", "\"frames\": 4294967296"),
            ("tor", "\"tor\": 1,", "\"tor\": 65536,"),
            ("transport", "\"sr\"", "\"carrier-pigeon\""),
        ] {
            assert!(json.contains(from), "{field}: sample lacks {from:?}");
            let err = Repro::<SessionSpec>::parse(&json.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
        assert_eq!(kind_of(&json).as_deref(), Ok("session"));
        assert!(kind_of(&json[..json.len() / 2]).is_err(), "truncated");
    }
}
