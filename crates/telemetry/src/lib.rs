//! # telemetry — deterministic sim-time metrics and tracing
//!
//! One uniform read-out surface for every instrumented component in the
//! Configurable Cloud reproduction. Components implement [`MetricSource`]
//! and publish counters, gauges and histograms into a [`MetricsSnapshot`]
//! keyed by slash-separated component paths; hot paths additionally emit
//! spans into a bounded [`FlightRecorder`] ring buffer that exports as
//! Chrome trace-event JSON (viewable in Perfetto).
//!
//! Determinism is a hard constraint, matching the simulation substrate:
//!
//! * every timestamp comes from the sim clock ([`dcsim::SimTime`]), never
//!   wall-clock time;
//! * snapshot entries are sorted by full path, so serialization order is a
//!   pure function of the metric paths, not of visiting order;
//! * the same seed therefore produces a byte-identical metrics dump and
//!   trace JSON across runs and processes.
//!
//! # Examples
//!
//! ```
//! use telemetry::{MetricSource, MetricVisitor, MetricsSnapshot};
//!
//! struct Nic { rx: u64, tx: u64 }
//!
//! impl MetricSource for Nic {
//!     fn metrics(&self, m: &mut MetricVisitor<'_>) {
//!         m.counter("rx_frames", self.rx);
//!         m.counter("tx_frames", self.tx);
//!     }
//! }
//!
//! let nic = Nic { rx: 7, tx: 5 };
//! let mut snap = MetricsSnapshot::new(dcsim::SimTime::from_micros(10));
//! snap.visit("node0/nic", &nic);
//! assert_eq!(snap.counter("node0/nic/rx_frames"), Some(7));
//! assert!(snap.to_json().contains("\"node0/nic/tx_frames\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod histogram;
pub mod json;
mod registry;
mod trace;

pub use histogram::{nearest_rank, Histogram, HistogramSnapshot, Sample};
pub use registry::{MetricSource, MetricValue, MetricVisitor, MetricsSnapshot};
pub use trace::{FlightRecorder, TraceEvent, TracePhase, Tracer, TrackTracer};
