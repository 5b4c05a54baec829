//! Output: the one-line result object the acceptance check reads, the
//! human-readable table before it, the full result file (`--out`) that
//! `compare` reads, and the Chrome trace file of the traced pass.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

use crate::json::{numbers, object, render, render_pretty, strings};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{Measured, Probed, Traced};
use crate::spans::{chrome_event, chrome_events, self_time_ns};
use crate::stats::quartiles;
use crate::workloads::CLASSES;

fn metric_value(value: f64, unit: &str) -> Value {
    object([
        ("value", Value::F64(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    render(object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted.max(1))),
        ("failed", Value::U64(failed)),
        ("metrics", metrics),
    ]))
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    fn attempted_failed(&self) -> (u64, u64) {
        let o = &self.reps[0].outcome;
        (o.attempted, o.failed)
    }

    /// The result object: every end-to-end metric, by name.
    pub fn result_line(&self) -> String {
        let metrics = object(
            END_TO_END
                .iter()
                .map(|m| (m.name, metric_value(self.value(m.name), m.unit))),
        );
        let (attempted, failed) = self.attempted_failed();
        result_line(self.correct(), attempted, failed, metrics)
    }

    /// The table a person reads.
    pub fn print(&self) {
        let w = self.workload;
        let first = &self.reps[0];
        let o = &first.outcome;
        println!("== {} (seed {}, untraced) ==", w.name, self.seed);
        println!("   why:  {}", w.why);
        println!("   load: {}", w.load);
        println!("   op:   {}", w.op);
        println!(
            "   {} repetitions of {:.2} s (timed phase), {} set-ups timed, {} shards on {} workers",
            self.reps.len(),
            first.timed.as_secs_f64(),
            self.setups_s.len(),
            o.shards,
            o.workers
        );
        println!(
            "   ops attempted {} failed {} (failed_share {:.6}); {} ops in the timed phase over {:.3} sim-ms; {} latency samples",
            o.attempted,
            o.failed,
            o.failed as f64 / o.attempted.max(1) as f64,
            o.ops,
            o.sim_ns as f64 / 1e6,
            self.latency.0
        );
        for m in &END_TO_END {
            let values = self.values(m.name);
            let (q1, med, q3) = quartiles(&values);
            println!(
                "   {:<20} {:>16.4} {:<9} (q1 {:.4}, q3 {:.4}, n {})",
                m.name,
                med,
                m.unit,
                q1,
                q3,
                values.len()
            );
        }
        for note in &o.notes {
            println!("   note: {note}");
        }
        println!("   fingerprint {:016x}", o.fingerprint);
        print_gate(&self.violations);
    }

    /// This workload's entry in the result file.
    pub fn to_json(&self) -> Value {
        let o = &self.reps[0].outcome;
        let end_to_end = object(END_TO_END.iter().map(|m| {
            let values = self.values(m.name);
            let (q1, med, q3) = quartiles(&values);
            (
                m.name,
                object([
                    ("unit", Value::Str(m.unit.into())),
                    ("median", Value::F64(med)),
                    ("q1", Value::F64(q1)),
                    ("q3", Value::F64(q3)),
                    ("values", numbers(&values)),
                ]),
            )
        }));
        object([
            ("name", Value::Str(self.workload.name.into())),
            ("correct", Value::Bool(self.correct())),
            ("violations", strings(&self.violations)),
            ("attempted", Value::U64(o.attempted)),
            ("failed", Value::U64(o.failed)),
            ("shards", Value::U64(o.shards.into())),
            ("workers", Value::U64(o.workers.into())),
            ("reps", Value::U64(self.reps.len() as u64)),
            ("latency_samples", Value::U64(self.latency.0)),
            ("fingerprint", Value::Str(format!("{:016x}", o.fingerprint))),
            ("end_to_end", end_to_end),
        ])
    }
}

/// Prints the top-level spans of a recorder with their self time.
fn print_spans(recorder: &crate::spans::Recorder) {
    let spans = recorder.spans();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        println!(
            "   span {:<28} {:>10.3} ms (self {:.3} ms)",
            s.name,
            s.duration_ns() as f64 / 1e6,
            self_time_ns(spans, i) as f64 / 1e6
        );
    }
}

/// Prints the per-layer metrics `table` holds, in the order of
/// [`PER_LAYER`].
fn print_layers(table: &std::collections::BTreeMap<&'static str, f64>) {
    for m in PER_LAYER.iter().filter(|m| table.contains_key(m.name)) {
        println!("   {:<46} {:>18.4} {}", m.name, table[m.name], m.unit);
    }
}

fn layers_json(table: &std::collections::BTreeMap<&'static str, f64>) -> Value {
    object(
        PER_LAYER
            .iter()
            .filter(|m| table.contains_key(m.name))
            .map(|m| (m.name, Value::F64(table[m.name]))),
    )
}

impl Traced {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The result object: every per-layer metric, by name — this
    /// workload's own and the probes'.
    pub fn result_line(&self, probed: &Probed) -> String {
        let metrics = object(PER_LAYER.iter().map(|m| {
            let table = if m.is_probe() {
                &probed.per_layer
            } else {
                &self.per_layer
            };
            (m.name, metric_value(table[m.name], m.unit))
        }));
        result_line(
            self.correct() && probed.correct(),
            self.attempted,
            self.failed,
            metrics,
        )
    }

    pub fn print(&self) {
        println!("== {} (traced pass) ==", self.workload.name);
        if let Some(obs) = &self.observed {
            let total: u64 = obs.costs.iter().map(|c| c.busy_ns).sum();
            println!("   [obs] host time of the timed phase by component class:");
            for (class, cost) in CLASSES.iter().zip(&obs.costs) {
                println!(
                    "   {:<16} {:>12} events {:>9.1} ns/event {:>6.1} % of observed time",
                    class,
                    cost.events,
                    cost.busy_ns_per_event(),
                    cost.busy_ns as f64 / total.max(1) as f64 * 100.0
                );
            }
        } else {
            println!("   [obs] not available: this workload's engine takes no observer");
        }
        print_spans(&self.recorder);
        print_layers(&self.per_layer);
        print_gate(&self.violations);
    }

    pub fn to_json(&self) -> Value {
        object([
            ("name", Value::Str(self.workload.name.into())),
            ("correct", Value::Bool(self.correct())),
            ("violations", strings(&self.violations)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("per_layer", layers_json(&self.per_layer)),
        ])
    }

    /// Chrome trace events of this pass, as process `pid`: harness spans
    /// on thread 1, the first per-event observer spans on thread 2,
    /// placed where the `timed` span started.
    fn chrome_events(&self, pid: u64) -> Vec<Value> {
        let spans = self.recorder.spans();
        let mut events = chrome_events(spans, pid);
        if let Some(obs) = &self.observed {
            let timed_start = spans
                .iter()
                .find(|s| s.name == "timed")
                .map_or(0, |s| s.start_ns);
            events.extend(obs.event_spans.iter().map(|&(class, start, dur)| {
                let args = object([("workload", Value::Str(self.workload.name.into()))]);
                chrome_event(CLASSES[class], (pid, 2), timed_start + start, dur, args)
            }));
        }
        events
    }

    fn class_aggregates(&self) -> Value {
        let costs = self.observed.as_ref().map_or(&[][..], |o| &o.costs[..]);
        object(CLASSES.iter().zip(costs).map(|(class, cost)| {
            (
                *class,
                object([
                    ("events", Value::U64(cost.events)),
                    ("busy_ns", Value::U64(cost.busy_ns)),
                ]),
            )
        }))
    }
}

impl Probed {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn print(&self) {
        println!("== layer probes (once per traced pass) ==");
        print_spans(&self.recorder);
        print_layers(&self.per_layer);
        print_gate(&self.violations);
    }

    /// The `probes` entry of the result file.
    pub fn to_json(&self) -> Value {
        object([
            ("correct", Value::Bool(self.correct())),
            ("violations", strings(&self.violations)),
            ("per_layer", layers_json(&self.per_layer)),
        ])
    }
}

fn print_gate(violations: &[String]) {
    if violations.is_empty() {
        println!("   gate: ok");
    }
    for v in violations {
        println!("   gate: FAILED: {v}");
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers come from: commit (and whether the tree was dirty),
/// compiler, core count and the run's own arguments. Outside a git
/// work tree the commit reads "unknown".
pub fn provenance(seed: u64, seconds: f64, traced: bool) -> Value {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let commit = command_line("git", &["-C", repo, "rev-parse", "--short", "HEAD"]);
    let dirty = command_line("git", &["-C", repo, "status", "--porcelain"]).map(|s| !s.is_empty());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    object([
        (
            "commit",
            Value::Str(commit.unwrap_or_else(|| "unknown".into())),
        ),
        ("dirty", dirty.map_or(Value::Null, Value::Bool)),
        (
            "rustc",
            Value::Str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("nproc", Value::U64(nproc as u64)),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("traced", Value::Bool(traced)),
    ])
}

/// Writes the full result file; a traced pass adds its `probes` entry.
/// `claim` is always null: this benchmark measures, it does not claim a
/// gain.
pub fn write_result_file(
    path: &Path,
    provenance: Value,
    workloads: Vec<Value>,
    probes: Option<Value>,
) -> std::io::Result<()> {
    let doc = object(
        [
            ("schema", Value::U64(2)),
            ("claim", Value::Null),
            ("provenance", provenance),
            ("workloads", Value::Array(workloads)),
        ]
        .into_iter()
        .chain(probes.map(|p| ("probes", p))),
    );
    std::fs::write(path, render_pretty(doc))
}

/// `benchmark/out/trace.json`.
pub fn trace_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace.json")
}

/// Writes the spans of the traced passes and of the probes as one Chrome
/// trace-event file, with the per-class aggregates alongside.
pub fn write_trace_file(path: &Path, passes: &[Traced], probed: &Probed) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let doc = object([
        (
            "traceEvents",
            Value::Array(
                passes
                    .iter()
                    .zip(1..)
                    .flat_map(|(p, pid)| p.chrome_events(pid))
                    .chain(chrome_events(
                        probed.recorder.spans(),
                        passes.len() as u64 + 1,
                    ))
                    .collect(),
            ),
        ),
        ("displayTimeUnit", Value::Str("ns".into())),
        (
            "classAggregates",
            object(
                passes
                    .iter()
                    .map(|p| (p.workload.name, p.class_aggregates())),
            ),
        ),
    ]);
    std::fs::write(path, render(doc))
}
