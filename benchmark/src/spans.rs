//! Harness-side spans: `(name, start, end, parent, workload)` recorded at
//! every boundary the benchmark crosses, kept in memory and written out
//! as Chrome trace-event JSON when the run ends.
//!
//! The recorder doubles as the harness's stopwatch — `span` always
//! returns the elapsed time — so the untraced run uses the same code
//! path with recording switched off.

use std::time::{Duration, Instant};

use serde::Value;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Boundary name (`setup`, `timed`, `probe:shell.ltl.gbn`, ...).
    pub name: String,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Workload the span belongs to.
    pub workload: String,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Recorder {
    epoch: Instant,
    recording: bool,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose epoch is now. With `recording` off, [`Recorder::span`]
    /// only times.
    pub fn new(recording: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            recording,
            workload: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Names the workload that spans opened from now on belong to.
    pub fn set_workload(&mut self, workload: &str) {
        self.workload = workload.to_string();
    }

    /// Runs `f` inside a span called `name`, nested under whichever span
    /// is open, and returns its result with the elapsed time.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> (R, Duration) {
        let start = Instant::now();
        let slot = self.recording.then(|| {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                workload: self.workload.clone(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let elapsed = start.elapsed();
        if let Some(i) = slot {
            self.spans[i].end_ns = self.spans[i].start_ns + elapsed.as_nanos() as u64;
            self.open.pop();
        }
        (out, elapsed)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of it covered by its
/// direct children (children never overlap — the recorder is a stack).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(Span::duration_ns)
        .sum();
    spans[index].duration_ns().saturating_sub(children)
}

fn micros(ns: u64) -> Value {
    Value::F64(ns as f64 / 1_000.0)
}

/// One Chrome trace-event "complete" (`ph: X`) record.
pub fn chrome_event(
    name: &str,
    (pid, tid): (u64, u64),
    start_ns: u64,
    dur_ns: u64,
    args: Value,
) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str(name.to_string())),
        ("ph".into(), Value::Str("X".into())),
        ("pid".into(), Value::U64(pid)),
        ("tid".into(), Value::U64(tid)),
        ("ts".into(), micros(start_ns)),
        ("dur".into(), micros(dur_ns)),
        ("args".into(), args),
    ])
}

/// The harness spans as Chrome trace events on thread 1 of process `pid`.
pub fn chrome_events(spans: &[Span], pid: u64) -> Vec<Value> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = match s.parent {
                Some(p) => Value::U64(p as u64),
                None => Value::Null,
            };
            let args = Value::Object(vec![
                ("id".into(), Value::U64(i as u64)),
                ("parent".into(), parent),
                ("workload".into(), Value::Str(s.workload.clone())),
                ("self_us".into(), micros(self_time_ns(spans, i))),
            ]);
            chrome_event(&s.name, (pid, 1), s.start_ns, s.duration_ns(), args)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            workload: "w".into(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("workload", 0, 1_000, None),
            span("setup", 0, 100, Some(0)),
            span("timed", 100, 900, Some(0)),
            span("inner", 200, 500, Some(2)),
        ];
        // workload: 1000 - (100 + 800); the grandchild is not counted twice.
        assert_eq!(self_time_ns(&spans, 0), 100);
        assert_eq!(self_time_ns(&spans, 2), 500);
        assert_eq!(self_time_ns(&spans, 3), 300);
    }

    #[test]
    fn recorder_nests_spans_and_times_them() {
        let mut r = Recorder::new(true);
        r.set_workload("toy");
        let ((), outer) = r.span("outer", |r| {
            r.span("a", |_| std::hint::black_box(1 + 1));
            r.span("b", |_| ());
        });
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[1].workload, "toy");
        assert!(s[1].end_ns <= s[2].start_ns, "siblings do not overlap");
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(s[0].duration_ns(), outer.as_nanos() as u64);
        assert!(self_time_ns(s, 0) <= s[0].duration_ns());
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut r = Recorder::new(false);
        let (v, _elapsed) = r.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(r.spans().is_empty());
    }
}
