//! The measurement harness: the untraced run that produces the end-to-end
//! metrics and the traced pass that produces the per-layer ones.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::metrics::PER_LAYER;
use crate::probes;
use crate::spans::Recorder;
use crate::stats::{median, percentile_guarded};
use crate::workloads::{Latency, Observed, Outcome, Rig, Workload, CLASSES};

/// Fresh builds timed for `setup_s`: [`SETUP_BATCH`] back to back before
/// every repetition, after [`SETUP_WARMUP`] untimed ones, and topped up to
/// [`MIN_SETUP_BUILDS`] when a run repeats too few times. Measured here:
///
/// * set-ups take 0.1-6 ms, so a run's builds fit in a window of 50 ms if
///   done in one go, and this machine has such windows that run 60 %
///   slower than the same window of the next run; spread over the run, a
///   slow window touches one batch and not the median;
/// * the first build after a repetition, on the caches the run emptied,
///   takes twice as long as the fifth, and the second 1.2-1.5 times: two
///   more populations in the sample unless they are left out (which is
///   also why the build each repetition does for itself is not in it).
const SETUP_BATCH: usize = 7;
const SETUP_WARMUP: usize = 2;
const MIN_SETUP_BUILDS: usize = 21;
/// Timed repetitions a run does at least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Share of `--seconds` each of the 26 time-budgeted layer probes runs
/// for: 0.3 s at the default 15.
const PROBE_SHARE: f64 = 0.02;
/// Plain and traced repetitions of the traced pass; host-time figures are
/// their medians.
const TRACED_REPS: usize = 3;

/// One timed repetition: host-side measurements plus what the workload
/// reported.
pub struct Rep {
    pub setup: Duration,
    pub timed: Duration,
    /// Live-heap high-water of set-up + timed phase, above what the
    /// harness itself held when the repetition started.
    pub peak_heap_bytes: usize,
    /// Heap acquisitions during the timed phase.
    pub allocs: u64,
    pub outcome: Outcome,
}

impl Rep {
    pub fn ops_per_sec(&self) -> f64 {
        self.outcome.ops as f64 / self.timed.as_secs_f64()
    }

    pub fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.outcome.ops.max(1) as f64
    }
}

/// Builds one instance and drives it through set-up, warm-up, the timed
/// phase and the report, each inside its own span.
fn run_rep(name: &str, build: &dyn Fn() -> Box<dyn Rig>, rec: &mut Recorder, observe: bool) -> Rep {
    let baseline = alloc::reset_peak();
    let (rep, _) = rec.span(name, |rec| {
        let (mut rig, setup) = rec.span("setup", |_| build());
        rec.span("warmup", |_| rig.warmup());
        if observe {
            rig.attach_observer();
        }
        let before = alloc::acquisitions();
        let ((), timed) = rec.span("timed", |_| rig.timed());
        let allocs = alloc::acquisitions() - before;
        let peak_heap_bytes = alloc::peak_bytes().saturating_sub(baseline);
        let (outcome, _) = rec.span("report", |_| rig.finish());
        Rep {
            setup,
            timed,
            peak_heap_bytes,
            allocs,
            outcome,
        }
    });
    rep
}

/// Everything the untraced run of one workload measured.
pub struct Measured {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Every fresh build timed for `setup_s`, in seconds, in run order.
    pub setups_s: Vec<f64>,
    pub reps: Vec<Rep>,
    /// Latency sample size, median and p99.9 (nanoseconds).
    pub latency: (u64, u64, u64),
    pub violations: Vec<String>,
}

impl Measured {
    /// The values behind an end-to-end metric: one per repetition for
    /// host-side metrics, a single exact value for simulated ones.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        let first = &self.reps[0].outcome;
        match metric {
            "ops_per_sec" => self.reps.iter().map(Rep::ops_per_sec).collect(),
            "setup_s" => self.setups_s.clone(),
            "peak_heap_bytes" => self.reps.iter().map(|r| r.peak_heap_bytes as f64).collect(),
            "allocs_per_op" => self.reps.iter().map(Rep::allocs_per_op).collect(),
            "sim_lat_p50_us" => vec![self.latency.1 as f64 / 1_000.0],
            "sim_lat_p999_us" => vec![self.latency.2 as f64 / 1_000.0],
            "sim_ops_per_sim_s" => vec![first.ops as f64 / (first.sim_ns as f64 / 1e9)],
            other => panic!("no end-to-end metric called {other}"),
        }
    }

    /// The reported value of an end-to-end metric: the median.
    pub fn value(&self, metric: &str) -> f64 {
        median(&self.values(metric))
    }
}

/// Sorts a latency sample and picks its median and guarded p99.9.
fn summarize_latency(latency: &Latency, violations: &mut Vec<String>) -> (u64, u64, u64) {
    match latency {
        Latency::Samples(samples) => {
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let mut pick = |per_mille| {
                percentile_guarded(&sorted, per_mille).unwrap_or_else(|why| {
                    violations.push(format!("latency sample: {why}"));
                    0
                })
            };
            let (p50, p999) = (pick(500), pick(999));
            (sorted.len() as u64, p50, p999)
        }
        Latency::Summary {
            count,
            p50_ns,
            p999_ns,
        } => {
            if *count < 10_000 {
                violations.push(format!(
                    "latency sample: {count} samples leave fewer than 10 beyond p99.9"
                ));
            }
            (*count, *p50_ns, *p999_ns)
        }
    }
}

/// The untraced run: repetitions for `seconds` (or exactly `reps`, when
/// given), each preceded by a batch of fresh builds for `setup_s`.
pub fn measure(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
) -> Measured {
    let mut rec = Recorder::new(false);
    let build = || (workload.build)(seed);
    let mut setups_s = Vec::new();
    let mut time_builds = |n: usize, rec: &mut Recorder| {
        for i in 0..SETUP_WARMUP + n {
            let (rig, took) = rec.span("setup", |_| build());
            drop(rig);
            if i >= SETUP_WARMUP {
                setups_s.push(took.as_secs_f64());
            }
        }
    };

    let started = Instant::now();
    let mut done: Vec<Rep> = Vec::new();
    let enough = |n: usize| match reps {
        Some(want) => n >= want.max(1),
        None => n >= MIN_REPS && started.elapsed().as_secs_f64() >= seconds,
    };
    while !enough(done.len()) {
        time_builds(SETUP_BATCH, &mut rec);
        done.push(run_rep(workload.name, &build, &mut rec, false));
    }
    time_builds(
        MIN_SETUP_BUILDS.saturating_sub(done.len() * SETUP_BATCH),
        &mut rec,
    );

    let mut violations = done[0].outcome.violations.clone();
    for (i, rep) in done.iter().enumerate().skip(1) {
        let (a, b) = (&done[0].outcome, &rep.outcome);
        if (a.fingerprint, a.ops, a.sim_ns) != (b.fingerprint, b.ops, b.sim_ns) {
            violations.push(format!(
                "repetition {i} diverged from repetition 0: fingerprint {:016x} vs {:016x}",
                b.fingerprint, a.fingerprint
            ));
        }
    }
    let latency = summarize_latency(&done[0].outcome.latency, &mut violations);
    Measured {
        workload,
        seed,
        setups_s,
        reps: done,
        latency,
        violations,
    }
}

/// Everything the traced pass of one workload produced.
pub struct Traced {
    pub workload: &'static Workload,
    /// Every per-layer metric read off this workload's own runs, by name;
    /// the probes' figures are in [`Probed`].
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Attempted and failed ops of the traced repetition.
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Harness spans and, when the observer ran, its per-class view.
    pub recorder: Recorder,
    pub observed: Option<Observed>,
}

/// Sets `name` in a table that [`PER_LAYER`] pre-filled.
fn set(table: &mut BTreeMap<&'static str, f64>, name: &str, value: f64) {
    let slot = table
        .get_mut(name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric of this table"));
    *slot = value;
}

/// The traced pass of one workload: [`TRACED_REPS`] plain repetitions as
/// the reference, as many with the harness's spans and observer on, and
/// the workload's own comparison run where it has one.
pub fn measure_traced(workload: &'static Workload, seed: u64) -> Traced {
    let mut rec = Recorder::new(true);
    rec.set_workload(workload.name);
    let build = || (workload.build)(seed);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..TRACED_REPS {
        plain.push(run_rep(
            workload.name,
            &build,
            &mut Recorder::new(false),
            false,
        ));
        traced.push(run_rep(workload.name, &build, &mut rec, true));
    }
    let reference = &plain[0];
    let median_of =
        |reps: &[Rep], f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let plain_ops_per_sec = median_of(&plain, Rep::ops_per_sec);
    let plain_timed_ns = median_of(&plain, |r| r.timed.as_nanos() as f64);

    let last = traced.pop().expect("TRACED_REPS is at least 1");
    let mut violations = last.outcome.violations.clone();
    let mut same_as_plain = |what: &str, other: &Outcome| {
        if other.fingerprint != reference.outcome.fingerprint {
            violations.push(format!(
                "{what} fingerprint {:016x} differs from the untraced {:016x}",
                other.fingerprint, reference.outcome.fingerprint
            ));
        }
    };
    for rep in plain.iter().skip(1).chain(&traced) {
        same_as_plain("a repetition's", &rep.outcome);
    }
    same_as_plain("traced", &last.outcome);

    let mut per_layer: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .filter(|m| !m.is_probe())
        .map(|m| (m.name, 0.0))
        .collect();
    let mut put = |name: &str, value: f64| set(&mut per_layer, name, value);

    // [cnt] exact model counters of this workload.
    put("dcsim.sharded.shards", f64::from(last.outcome.shards));
    put("dcsim.sharded.workers", f64::from(last.outcome.workers));
    for &(name, value) in &last.outcome.counters {
        put(name, value);
    }
    let events = reference.outcome.events;
    if events > 0 {
        put("dcsim.engine.events", events as f64);
        put("dcsim.engine.ns_per_event", plain_timed_ns / events as f64);
    }
    // [obs] host time per component class.
    if let Some(obs) = &last.outcome.observed {
        for (class, cost) in CLASSES.iter().zip(&obs.costs) {
            put(&format!("{class}.events"), cost.events as f64);
            put(
                &format!("{class}.busy_ns_per_event"),
                cost.busy_ns_per_event(),
            );
        }
    }
    let traced_ops_per_sec = median(
        &traced
            .iter()
            .chain([&last])
            .map(Rep::ops_per_sec)
            .collect::<Vec<_>>(),
    );
    put(
        "bench.trace_overhead_pct",
        (plain_ops_per_sec - traced_ops_per_sec) / plain_ops_per_sec * 100.0,
    );

    // What this workload declares beyond its counters.
    if let Some(cmp) = &workload.comparison {
        let variant = run_rep(cmp.label, &|| (cmp.build)(seed), &mut rec, false);
        same_as_plain(cmp.label, &variant.outcome);
        put(
            cmp.metric,
            (cmp.figure)(plain_ops_per_sec, variant.ops_per_sec()),
        );
    }
    if let Some(name) = workload.setup_ns_metric {
        put(name, last.setup.as_nanos() as f64);
    }
    if let Some(name) = workload.ns_per_op_metric {
        put(name, plain_timed_ns / reference.outcome.ops.max(1) as f64);
    }

    Traced {
        workload,
        per_layer,
        attempted: last.outcome.attempted,
        failed: last.outcome.failed,
        violations,
        recorder: rec,
        observed: last.outcome.observed,
    }
}

/// What the layer probes of one traced pass produced.
pub struct Probed {
    /// Every `probe_*` per-layer metric, by name.
    pub per_layer: BTreeMap<&'static str, f64>,
    pub violations: Vec<String>,
    /// One span per probe.
    pub recorder: Recorder,
}

/// [probe] direct calls into each layer, once per traced pass: they do
/// not depend on the workloads it covered.
pub fn measure_probes(seed: u64, seconds: f64) -> Probed {
    let mut rec = Recorder::new(true);
    rec.set_workload("probes");
    let budget = Duration::from_secs_f64(seconds * PROBE_SHARE);
    let probed = probes::run_all(&mut rec, seed, budget);
    let mut per_layer: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .filter(|m| m.is_probe())
        .map(|m| (m.name, 0.0))
        .collect();
    for (name, value) in probed.metrics {
        set(&mut per_layer, name, value);
    }
    Probed {
        per_layer,
        violations: probed.violations,
        recorder: rec,
    }
}
