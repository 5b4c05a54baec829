//! The metrics registry: [`MetricSource`], [`MetricVisitor`] and
//! [`MetricsSnapshot`].
//!
//! The registry is pull-based: taking a snapshot walks the component tree,
//! and each [`MetricSource`] publishes through a [`MetricVisitor`]. Each
//! visited source stores its path prefix (`"shell/p0.t0.h1/ltl/"`) once;
//! a metric is a `&'static str` name and a 16-byte [`MetricValue`] in one
//! `Vec` sorted by full-path bytes, the order a `BTreeMap` keyed by full
//! paths gives, so a same-seed dump is byte-identical.

use dcsim::SimTime;
use serde::{Serialize, Value};

use crate::histogram::{Histogram, HistogramSnapshot};

/// One published metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Point-in-time level.
    Gauge(f64),
    /// Distribution summary with exact percentiles, boxed so that every
    /// value is 16 bytes.
    Histogram(Box<HistogramSnapshot>),
}

impl Serialize for MetricValue {
    fn to_value(&self) -> Value {
        match self {
            MetricValue::Counter(v) => v.to_value(),
            MetricValue::Gauge(v) => v.to_value(),
            MetricValue::Histogram(h) => h.to_value(),
        }
    }
}

/// A component that can publish its metrics into the registry.
///
/// This is the uniform read-out surface: `metrics()` is the registry view
/// of what the legacy per-component `stats()` structs expose ad hoc.
pub trait MetricSource {
    /// Publishes this component's metrics through `m`. Implementations
    /// must be deterministic: emit in a fixed order and derive every value
    /// from simulation state only.
    fn metrics(&self, m: &mut MetricVisitor<'_>);
}

/// Write handle a [`MetricSource`] publishes through; scoped to the
/// component's path prefix.
pub struct MetricVisitor<'a> {
    dir: usize,
    snap: &'a mut MetricsSnapshot,
}

impl MetricVisitor<'_> {
    fn publish(&mut self, name: &'static str, value: MetricValue) {
        let dir = self.dir;
        self.snap.entries.push(Entry { dir, name, value });
    }

    /// Publishes a counter.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        self.publish(name, MetricValue::Counter(value));
    }

    /// Publishes a gauge.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.publish(name, MetricValue::Gauge(value));
    }

    /// Publishes a snapshot of a live histogram.
    pub fn histogram(&mut self, name: &'static str, h: &Histogram) {
        self.publish(name, MetricValue::Histogram(Box::new(h.snapshot())));
    }

    /// Publishes a histogram built from a raw sample stream, with
    /// `bucket_width`-wide distribution buckets (0 = no buckets).
    pub fn histogram_samples(
        &mut self,
        name: &'static str,
        bucket_width: u64,
        samples: impl IntoIterator<Item = u64>,
    ) {
        let h = HistogramSnapshot::from_samples(bucket_width, samples);
        self.publish(name, MetricValue::Histogram(Box::new(h)));
    }

    /// Recurses into a child source under `segment`, e.g. a shell visiting
    /// its embedded LTL engine under `"ltl"`.
    pub fn child(&mut self, segment: &str, source: &dyn MetricSource) {
        let path = [&self.snap.prefixes[self.dir], segment, "/"].concat();
        self.snap.publish(path, source);
    }
}

/// One published metric; its full path is `prefixes[dir]` + `name`.
#[derive(Debug, Clone)]
struct Entry {
    dir: usize,
    name: &'static str,
    value: MetricValue,
}

/// The bytes of a full path stored as its two parts.
fn bytes<'a>([prefix, name]: [&'a str; 2]) -> impl DoubleEndedIterator<Item = u8> + 'a {
    prefix.bytes().chain(name.bytes())
}

/// A frozen, deterministic view of every published metric at one instant
/// of simulated time.
///
/// This is the single `snapshot()` shape that replaces the divergent
/// per-component stats surfaces: report assembly reads counters back out
/// by key (or sums them across components with [`MetricsSnapshot::sum_counters`])
/// instead of hand-gathering structs.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    at_ns: u64,
    /// Each visited source's path prefix, `/`-terminated unless empty.
    prefixes: Vec<String>,
    /// Every published metric, in full-path order.
    entries: Vec<Entry>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot stamped with the sim-clock instant `at`.
    pub fn new(at: SimTime) -> Self {
        MetricsSnapshot {
            at_ns: at.as_nanos(),
            ..MetricsSnapshot::default()
        }
    }

    /// Walks `source`, storing everything it publishes under `path`;
    /// panics as [`MetricsSnapshot::extend`] does.
    pub fn visit(&mut self, path: &str, source: &dyn MetricSource) {
        self.extend([(path.to_owned(), source)]);
    }

    /// Walks every `(path, source)` pair like [`MetricsSnapshot::visit`],
    /// restoring path order once at the end.
    ///
    /// # Panics
    ///
    /// Panics if a full path is published twice: the JSON dump would carry
    /// a duplicate key, which [`crate::json::parse`] rejects.
    pub fn extend<'s>(&mut self, iter: impl IntoIterator<Item = (String, &'s dyn MetricSource)>) {
        for (mut path, source) in iter {
            if !path.is_empty() {
                path.push('/');
            }
            self.publish(path, source);
        }
        let prefixes = &self.prefixes;
        // Prefixes that differ within their common length decide alone;
        // otherwise (`shell/a/` and `shell/a/ltl/`) the names take part.
        let order = |a: &Entry, b: &Entry| {
            let (pa, pb) = (&prefixes[a.dir], &prefixes[b.dir]);
            let n = pa.len().min(pb.len());
            pa.as_bytes()[..n]
                .cmp(&pb.as_bytes()[..n])
                .then_with(|| bytes([pa, a.name]).cmp(bytes([pb, b.name])))
        };
        self.entries.sort_unstable_by(order);
        for w in self.entries.windows(2) {
            if order(&w[0], &w[1]).is_eq() {
                panic!("metric path {} published twice", self.path(&w[0]).concat());
            }
        }
    }

    fn publish(&mut self, prefix: String, source: &dyn MetricSource) {
        self.prefixes.push(prefix);
        let dir = self.prefixes.len() - 1;
        source.metrics(&mut MetricVisitor { dir, snap: self });
    }

    fn path(&self, e: &Entry) -> [&str; 2] {
        [&self.prefixes[e.dir], e.name]
    }

    /// Number of stored metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up any metric by full key.
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        let at = |e: &Entry| bytes(self.path(e)).cmp(key.bytes());
        let i = self.entries.binary_search_by(at).ok()?;
        Some(&self.entries[i].value)
    }

    /// Looks up a counter by full key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a histogram by full key.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        match self.get(key)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Sums every counter whose key ends with `/suffix` (or equals
    /// `suffix`). This is how reports aggregate one quantity across many
    /// components, e.g. `sum_counters("ltl/retransmits")` over all shells.
    pub fn sum_counters(&self, suffix: &str) -> u64 {
        let count = |v: &MetricValue| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        };
        self.matching(suffix).map(count).sum()
    }

    /// Merges every histogram whose key ends with `/suffix` (or equals
    /// `suffix`) into one exact aggregate, or `None` if no key matches.
    pub fn merged_histogram(&self, suffix: &str) -> Option<HistogramSnapshot> {
        let parts: Vec<&HistogramSnapshot> = self
            .matching(suffix)
            .filter_map(|v| match v {
                MetricValue::Histogram(h) => Some(&**h),
                _ => None,
            })
            .collect();
        (!parts.is_empty()).then(|| HistogramSnapshot::merged(parts))
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (String, &MetricValue)> {
        let key = |e| self.path(e).concat();
        self.entries.iter().map(move |e| (key(e), &e.value))
    }

    /// The values whose full path is `suffix` or ends with `/suffix`,
    /// matched from the back without composing the path.
    fn matching<'a>(&'a self, suffix: &'a str) -> impl Iterator<Item = &'a MetricValue> + 'a {
        self.entries.iter().filter_map(move |e| {
            let mut rest = bytes(self.path(e)).rev();
            let hit = suffix.bytes().rev().all(|b| rest.next() == Some(b))
                && matches!(rest.next(), None | Some(b'/'));
            hit.then_some(&e.value)
        })
    }

    /// Serializes the snapshot as compact JSON. Key order is the full-path
    /// order, so the same metrics yield the same bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("metrics snapshot serializes")
    }

    /// Serializes the snapshot as pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics snapshot serializes")
    }
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        let metrics = self.iter().map(|(k, v)| (k, v.to_value())).collect();
        Value::Object(vec![
            ("at_ns".into(), self.at_ns.to_value()),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;

    impl MetricSource for Fake {
        fn metrics(&self, m: &mut MetricVisitor<'_>) {
            m.counter("rx", 3);
            m.counter("tx", 4);
            m.gauge("occupancy", 0.5);
            m.histogram_samples("lat_ns", 0, [10, 20, 30]);
        }
    }

    /// Publishes around a child whose segment sorts between its own names,
    /// as a shell does around `ltl/`.
    struct Nested;

    impl MetricSource for Nested {
        fn metrics(&self, m: &mut MetricVisitor<'_>) {
            m.counter("outer", 1);
            m.child("inner", &Fake);
            m.counter("a", 2);
            m.counter("z", 3);
        }
    }

    struct Odd;

    impl MetricSource for Odd {
        fn metrics(&self, m: &mut MetricVisitor<'_>) {
            m.counter("xrx", 100);
        }
    }

    #[test]
    fn a_value_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<MetricValue>(), 16);
    }

    #[test]
    fn visit_prefixes_keys() {
        let mut snap = MetricsSnapshot::new(SimTime::from_micros(5));
        snap.visit("node0", &Fake);
        assert_eq!(snap.counter("node0/rx"), Some(3));
        assert_eq!(snap.get("node0/occupancy"), Some(&MetricValue::Gauge(0.5)));
        assert_eq!(snap.histogram("node0/lat_ns").unwrap().p50, Some(20));
        assert_eq!(snap.counter("node0/occupancy"), None);
        assert_eq!(snap.counter("node0"), None);
        assert!(snap.to_json().starts_with("{\"at_ns\":5000,"));
    }

    #[test]
    fn child_nests_paths() {
        let mut snap = MetricsSnapshot::new(SimTime::ZERO);
        snap.visit("a", &Nested);
        assert_eq!(snap.counter("a/outer"), Some(1));
        assert_eq!(snap.counter("a/inner/rx"), Some(3));
    }

    #[test]
    fn sum_counters_matches_whole_path_segments() {
        let mut snap = MetricsSnapshot::new(SimTime::ZERO);
        snap.visit("n0", &Fake);
        snap.visit("n1", &Fake);
        snap.visit("odd", &Odd);
        snap.visit("n2", &Nested);
        assert_eq!(snap.sum_counters("rx"), 9);
        assert_eq!(snap.sum_counters("tx"), 12);
        assert_eq!(snap.sum_counters("inner/rx"), 3);
        assert_eq!(snap.sum_counters("n2/inner/rx"), 3);
        assert_eq!(snap.sum_counters("nner/rx"), 0);
    }

    #[test]
    fn merged_histogram_aggregates() {
        let mut snap = MetricsSnapshot::new(SimTime::ZERO);
        snap.visit("n0", &Fake);
        snap.visit("n1", &Fake);
        let m = snap.merged_histogram("lat_ns").unwrap();
        assert_eq!(m.count, 6);
        assert_eq!(m.max, Some(30));
        assert!(snap.merged_histogram("nope").is_none());
    }

    #[test]
    fn json_is_key_ordered_and_stable() {
        let mut a = MetricsSnapshot::new(SimTime::ZERO);
        a.visit("z", &Fake);
        a.visit("a", &Fake);
        let mut b = MetricsSnapshot::new(SimTime::ZERO);
        b.extend([
            ("a".to_string(), &Fake as &dyn MetricSource),
            ("z".to_string(), &Fake),
        ]);
        assert_eq!(a.to_json(), b.to_json());
        let json = a.to_json();
        assert!(json.find("\"a/rx\"").unwrap() < json.find("\"z/rx\"").unwrap());
        assert!(crate::json::validate(&json).is_ok());
    }

    /// The order is that of the full paths' bytes, not of (prefix, name)
    /// pairs: a child's entries sit between its parent's own names.
    #[test]
    fn json_orders_full_paths() {
        let mut snap = MetricsSnapshot::new(SimTime::ZERO);
        snap.visit("s", &Nested);
        snap.visit("", &Odd);
        let json = snap.to_json();
        let keys = [
            "s/a",
            "s/inner/lat_ns",
            "s/inner/tx",
            "s/outer",
            "s/z",
            "xrx",
        ];
        let at: Vec<usize> = keys
            .iter()
            .map(|k| json.find(&format!("\"{k}\"")).unwrap())
            .collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{json}");
        assert_eq!(snap.counter("xrx"), Some(100));
    }

    #[test]
    #[should_panic(expected = "metric path n0/xrx published twice")]
    fn a_path_published_twice_is_refused() {
        let mut snap = MetricsSnapshot::new(SimTime::ZERO);
        snap.visit("n0", &Odd);
        snap.visit("n0", &Odd);
    }
}
