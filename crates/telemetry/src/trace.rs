//! Flight recorder: bounded, deterministic span recording on simulation
//! hot paths, exportable as Chrome trace-event JSON.
//!
//! Components hold a cheap-clone [`TrackTracer`] (one per named track) and
//! emit instants or complete spans with sim-clock timestamps. Everything
//! lands in one shared [`FlightRecorder`] ring buffer: when the buffer is
//! full the oldest event is dropped and counted, so memory stays bounded
//! and the retained window is always the most recent activity. Because
//! events are appended in simulation dispatch order and timestamped from
//! the sim clock, the exported JSON is byte-identical for the same seed.
//!
//! Handles share the recorder through `Arc<Mutex<..>>` so traced
//! components stay `Send` and can be partitioned across the worker
//! threads of a sharded engine. The lock is uncontended in the
//! single-engine case; sharded runs keep tracing disabled (appends from
//! concurrent shards would interleave nondeterministically), so the
//! mutex is a `Send` bound, not a synchronization point on the hot path.
//!
//! # Examples
//!
//! ```
//! use dcsim::{SimDuration, SimTime};
//! use telemetry::Tracer;
//!
//! let tracer = Tracer::new(1024);
//! let track = tracer.track("ltl/0.0.1");
//! track.instant(SimTime::from_micros(1), "send", &[("seq", 1)]);
//! track.complete(
//!     SimTime::from_micros(1),
//!     SimDuration::from_micros(3),
//!     "request",
//!     &[("id", 7)],
//! );
//! let json = tracer.to_chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! assert!(telemetry::json::validate_chrome_trace(&json).is_ok());
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use dcsim::{SimDuration, SimTime};
use serde::Value;

/// Event kind, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A point event (`"ph":"i"`, thread-scoped).
    Instant,
    /// A complete span with a duration (`"ph":"X"`).
    Complete,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Index of the track (exported as the `tid`).
    pub track: u32,
    /// Event kind.
    pub phase: TracePhase,
    /// Sim-clock timestamp in nanoseconds (span start for a complete span).
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Event name.
    pub name: &'static str,
    /// Numeric arguments, shown in the Perfetto detail pane.
    pub args: Vec<(&'static str, u64)>,
}

#[derive(Debug, Default)]
struct Recorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    tracks: Vec<String>,
}

impl Recorder {
    fn push(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// Bounded ring buffer of [`TraceEvent`]s plus the track name table.
///
/// Usually accessed through [`Tracer`] / [`TrackTracer`] handles; exposed
/// so exports and tests can inspect the raw events.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    inner: Recorder,
}

/// Shared handle to a [`FlightRecorder`]; clone freely.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<Mutex<FlightRecorder>>,
}

/// A [`Tracer`] bound to one named track (one Perfetto "thread" row).
#[derive(Debug, Clone)]
pub struct TrackTracer {
    inner: Arc<Mutex<FlightRecorder>>,
    track: u32,
}

impl Tracer {
    /// Creates a recorder retaining at most `capacity` events (oldest
    /// dropped first).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            inner: Arc::new(Mutex::new(FlightRecorder {
                inner: Recorder {
                    capacity,
                    ..Recorder::default()
                },
            })),
        }
    }

    /// Registers a named track and returns a handle that records onto it.
    /// Registering the same name twice yields a second handle to the same
    /// track.
    pub fn track(&self, name: &str) -> TrackTracer {
        let mut rec = self.inner.lock().expect("recorder lock poisoned");
        let tracks = &mut rec.inner.tracks;
        let track = match tracks.iter().position(|t| t == name) {
            Some(i) => i as u32,
            None => {
                tracks.push(name.to_string());
                (tracks.len() - 1) as u32
            }
        };
        TrackTracer {
            inner: Arc::clone(&self.inner),
            track,
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("recorder lock poisoned")
            .inner
            .events
            .len()
    }

    /// Returns `true` if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted (or refused) because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .lock()
            .expect("recorder lock poisoned")
            .inner
            .dropped
    }

    /// Registered track names, in registration order.
    pub fn tracks(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("recorder lock poisoned")
            .inner
            .tracks
            .clone()
    }

    /// Discards all retained events (track registrations are kept).
    pub fn clear(&self) {
        let mut rec = self.inner.lock().expect("recorder lock poisoned");
        rec.inner.events.clear();
        rec.inner.dropped = 0;
    }

    /// Runs `f` over the retained events in recording order.
    pub fn with_events<R>(&self, f: impl FnOnce(&VecDeque<TraceEvent>) -> R) -> R {
        f(&self
            .inner
            .lock()
            .expect("recorder lock poisoned")
            .inner
            .events)
    }

    /// Exports the retained events as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in Perfetto or
    /// `chrome://tracing`. Timestamps are emitted in microseconds as
    /// required by the format; `displayTimeUnit` is set to `"ns"`.
    pub fn to_chrome_json(&self) -> String {
        let rec = self.inner.lock().expect("recorder lock poisoned");
        let mut events: Vec<Value> =
            Vec::with_capacity(rec.inner.events.len() + rec.inner.tracks.len());
        for (tid, name) in rec.inner.tracks.iter().enumerate() {
            events.push(Value::Object(vec![
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::U64(0)),
                ("tid".into(), Value::U64(tid as u64)),
                ("name".into(), Value::Str("thread_name".into())),
                (
                    "args".into(),
                    Value::Object(vec![("name".into(), Value::Str(name.clone()))]),
                ),
            ]));
        }
        for ev in &rec.inner.events {
            let mut obj = vec![
                (
                    "ph".into(),
                    Value::Str(match ev.phase {
                        TracePhase::Instant => "i".into(),
                        TracePhase::Complete => "X".into(),
                    }),
                ),
                ("pid".into(), Value::U64(0)),
                ("tid".into(), Value::U64(ev.track as u64)),
                ("name".into(), Value::Str(ev.name.into())),
                ("cat".into(), Value::Str("sim".into())),
                ("ts".into(), Value::F64(ev.ts_ns as f64 / 1_000.0)),
            ];
            match ev.phase {
                TracePhase::Complete => {
                    obj.push(("dur".into(), Value::F64(ev.dur_ns as f64 / 1_000.0)));
                }
                TracePhase::Instant => {
                    obj.push(("s".into(), Value::Str("t".into())));
                }
            }
            if !ev.args.is_empty() {
                obj.push((
                    "args".into(),
                    Value::Object(
                        ev.args
                            .iter()
                            .map(|&(k, v)| (k.to_string(), Value::U64(v)))
                            .collect(),
                    ),
                ));
            }
            events.push(Value::Object(obj));
        }
        let root = Value::Object(vec![
            ("displayTimeUnit".into(), Value::Str("ns".into())),
            ("traceEvents".into(), Value::Array(events)),
        ]);
        serde_json::to_string(&root).expect("trace serializes")
    }
}

impl TrackTracer {
    /// Records a point event at sim time `at`.
    pub fn instant(&self, at: SimTime, name: &'static str, args: &[(&'static str, u64)]) {
        self.inner
            .lock()
            .expect("recorder lock poisoned")
            .inner
            .push(TraceEvent {
                track: self.track,
                phase: TracePhase::Instant,
                ts_ns: at.as_nanos(),
                dur_ns: 0,
                name,
                args: args.to_vec(),
            });
    }

    /// Records a complete span starting at `start` and lasting `dur`.
    pub fn complete(
        &self,
        start: SimTime,
        dur: SimDuration,
        name: &'static str,
        args: &[(&'static str, u64)],
    ) {
        self.inner
            .lock()
            .expect("recorder lock poisoned")
            .inner
            .push(TraceEvent {
                track: self.track,
                phase: TracePhase::Complete,
                ts_ns: start.as_nanos(),
                dur_ns: dur.as_nanos(),
                name,
                args: args.to_vec(),
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest() {
        let t = Tracer::new(2);
        let tr = t.track("a");
        for i in 0..5u64 {
            tr.instant(SimTime::from_nanos(i), "e", &[("i", i)]);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        t.with_events(|evs| {
            assert_eq!(evs[0].args, vec![("i", 3)]);
            assert_eq!(evs[1].args, vec![("i", 4)]);
        });
    }

    #[test]
    fn track_registration_deduplicates() {
        let t = Tracer::new(8);
        let a = t.track("x");
        let b = t.track("x");
        let c = t.track("y");
        assert_eq!(a.track, b.track);
        assert_ne!(a.track, c.track);
        assert_eq!(t.tracks(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn chrome_export_is_valid_and_stable() {
        let build = || {
            let t = Tracer::new(64);
            let tr = t.track("ltl/0.0.1");
            tr.instant(SimTime::from_micros(1), "send", &[("seq", 1)]);
            tr.complete(
                SimTime::from_micros(2),
                SimDuration::from_nanos(1500),
                "req",
                &[],
            );
            t.to_chrome_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same inputs must serialize to identical bytes");
        assert!(crate::json::validate_chrome_trace(&a).is_ok());
        assert!(a.contains("\"thread_name\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"dur\":1.5"));
    }

    #[test]
    fn zero_capacity_refuses_everything() {
        let t = Tracer::new(0);
        let tr = t.track("a");
        tr.instant(SimTime::ZERO, "e", &[]);
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 1);
    }
}
