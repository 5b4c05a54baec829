//! `compare A.json B.json`: applies the end-to-end bounds to two result
//! files of the same seed, one verdict per (metric, workload), one table
//! per workload.
//!
//! A is the baseline, B the candidate. This is the check behind "two sets
//! of runs of the same commit agree", and the one a change that claims a
//! gain, or claims to be free, has to pass on every other pairing.
//!
//! Everything simulated is a function of the seed, so the two files must
//! come from one seed, and then the fingerprint and every exact metric
//! (`sim_*`, `allocs_per_op`) must be identical: any change there is a
//! change of the model, not of its speed. Host-side metrics (`ops_per_sec`,
//! `setup_s`, `peak_heap_bytes`) are judged against their bounds.

use std::fmt;

use serde::Value;

use crate::json::{as_array, as_f64, as_str, get};
use crate::metrics::{MetricDef, END_TO_END};
use crate::stats::{block_spread, median};

/// Outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every candidate run reads better than every baseline run (an exact
    /// metric: the one value is better).
    Better,
    /// The candidate's median is no worse than the baseline's by more
    /// than the bound (an exact metric: the values are identical).
    WithinBound,
    /// The candidate's median is worse by more than the bound (an exact
    /// metric: worse at all).
    Worse,
    /// The runs overlap and one side's run-to-run spread is wider than
    /// the bound: the data cannot tell a regression of the bound's size
    /// from noise.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// How much worse `candidate`'s median is than `baseline`'s, as a share
/// of the baseline (negative = better).
pub fn worsening(def: &MetricDef, baseline: &[f64], candidate: &[f64]) -> f64 {
    let (a, b) = (median(baseline), median(candidate));
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

/// Blocks a run's repetitions are cut into to estimate its run-to-run
/// spread (see [`block_spread`]).
const BLOCKS: usize = 5;

/// The verdict for one metric on one workload.
pub fn verdict(def: &MetricDef, baseline: &[f64], candidate: &[f64]) -> Verdict {
    let change = worsening(def, baseline, candidate);
    if def.exact {
        return match change {
            c if c < 0.0 => Verdict::Better,
            c if c > 0.0 => Verdict::Worse,
            _ => Verdict::WithinBound,
        };
    }
    let beats = |x: f64, y: f64| if def.higher_is_better { x > y } else { x < y };
    let every_pair = |holds: &dyn Fn(f64, f64) -> bool| {
        baseline
            .iter()
            .all(|&a| candidate.iter().all(|&b| holds(a, b)))
    };
    if every_pair(&|a, b| beats(b, a)) {
        return Verdict::Better;
    }
    let overlap = !every_pair(&|a, b| beats(a, b));
    let spread = block_spread(baseline, BLOCKS).max(block_spread(candidate, BLOCKS));
    if overlap && spread > def.bound {
        return Verdict::Unresolved;
    }
    if change > def.bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// `failed / attempted` may not rise at all.
pub fn failed_share_verdict(baseline: (f64, f64), candidate: (f64, f64)) -> Verdict {
    let share = |(attempted, failed): (f64, f64)| failed / attempted.max(1.0);
    let (a, b) = (share(baseline), share(candidate));
    if b > a {
        Verdict::Worse
    } else if b < a {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    telemetry::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    get(doc, "workloads")
        .and_then(as_array)
        .ok_or_else(|| "result file has no \"workloads\" array".to_string())
}

fn values(workload: &Value, metric: &str) -> Option<Vec<f64>> {
    let entry = get(get(workload, "end_to_end")?, metric)?;
    as_array(get(entry, "values")?)?
        .iter()
        .map(as_f64)
        .collect()
}

fn counts(workload: &Value) -> Option<(f64, f64)> {
    Some((
        as_f64(get(workload, "attempted")?)?,
        as_f64(get(workload, "failed")?)?,
    ))
}

fn provenance<'a>(doc: &'a Value, key: &str) -> Option<&'a Value> {
    get(get(doc, "provenance")?, key)
}

fn describe(doc: &Value) -> String {
    let field = |key: &str| match provenance(doc, key) {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Bool(b)) => b.to_string(),
        Some(other) => as_f64(other).map_or("unknown".into(), |n| n.to_string()),
        None => "unknown".into(),
    };
    format!(
        "commit {} (dirty: {}), seed {}, {} cores",
        field("commit"),
        field("dirty"),
        field("seed"),
        field("nproc")
    )
}

/// Compares two result files; returns the number of `worse` verdicts.
pub fn compare_files(path_a: &str, path_b: &str) -> Result<usize, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("baseline  A: {path_a}: {}", describe(&a));
    println!("candidate B: {path_b}: {}", describe(&b));
    let seed = |doc| provenance(doc, "seed").and_then(as_f64);
    if seed(&a).is_none() || seed(&a) != seed(&b) {
        return Err(
            "the two files were measured on different seeds: their inputs differ, so nothing \
             in them compares"
                .into(),
        );
    }
    let mut worse = 0;
    for wa in workloads(&a)? {
        let name = get(wa, "name").and_then(as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)?
            .iter()
            .find(|w| get(w, "name").and_then(as_str) == Some(name))
        else {
            println!("== {name}: missing from B ==");
            worse += 1;
            continue;
        };
        println!("== {name} ==");
        println!(
            "   {:<20} {:>16} {:>16} {:>9} {:>7}  verdict",
            "metric", "A median", "B median", "B better", "bound"
        );
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (values(wa, def.name), values(wb, def.name)) else {
                return Err(format!(
                    "{name}: {} is missing from a result file",
                    def.name
                ));
            };
            let v = verdict(def, &va, &vb);
            worse += usize::from(v == Verdict::Worse);
            let bound = if def.exact {
                "exact".to_string()
            } else {
                format!("{:.0}%", def.bound * 100.0)
            };
            println!(
                "   {:<20} {:>16.4} {:>16.4} {:>+8.2}% {bound:>7}  {v}",
                def.name,
                median(&va),
                median(&vb),
                // `+ 0.0` turns an exact tie's -0.0 into 0.0.
                -worsening(def, &va, &vb) * 100.0 + 0.0,
            );
        }
        let (Some(ca), Some(cb)) = (counts(wa), counts(wb)) else {
            return Err(format!(
                "{name}: attempted/failed missing from a result file"
            ));
        };
        let v = failed_share_verdict(ca, cb);
        worse += usize::from(v == Verdict::Worse);
        println!(
            "   {:<20} {:>16.6} {:>16.6} {:>9} {:>7}  {v}",
            "failed_share",
            ca.1 / ca.0.max(1.0),
            cb.1 / cb.0.max(1.0),
            "",
            "exact"
        );
        let print = |w| get(w, "fingerprint").and_then(as_str).unwrap_or("missing");
        let same = print(wa) == print(wb);
        worse += usize::from(!same);
        println!(
            "   {:<20} {:>16} {:>16} {:>9} {:>7}  {}",
            "fingerprint",
            print(wa),
            print(wb),
            "",
            "exact",
            if same {
                "identical"
            } else {
                "differs: the simulated outputs changed (counted as worse)"
            }
        );
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: MetricDef = MetricDef {
        name: "ops_per_sec",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.10,
        exact: false,
    };
    const LOWER: MetricDef = MetricDef {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.10,
        exact: false,
    };
    const EXACT: MetricDef = MetricDef {
        name: "sim_lat_p50_us",
        unit: "sim-us",
        higher_is_better: false,
        bound: 0.25,
        exact: true,
    };

    #[test]
    fn better_needs_every_run_to_beat_every_run() {
        assert_eq!(
            verdict(&HIGHER, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Better
        );
        assert_eq!(
            verdict(&LOWER, &[1.0, 1.01, 0.99], &[0.8, 0.81, 0.79]),
            Verdict::Better
        );
        // One overlapping run is enough to withhold it.
        assert_eq!(
            verdict(&HIGHER, &[100.0, 101.0, 99.0], &[120.0, 121.0, 100.5]),
            Verdict::Unresolved,
            "and that run spreads B wider than the bound"
        );
    }

    #[test]
    fn within_bound_when_medians_are_close_and_runs_are_tight() {
        assert_eq!(
            verdict(&HIGHER, &[100.0, 101.0, 99.0], &[96.0, 97.0, 95.0]),
            Verdict::WithinBound
        );
        // A small improvement with overlapping runs is not "better".
        assert_eq!(
            verdict(&HIGHER, &[100.0, 102.0, 98.0], &[101.0, 103.0, 99.0]),
            Verdict::WithinBound
        );
    }

    #[test]
    fn worse_when_the_median_moves_past_the_bound() {
        assert_eq!(
            verdict(&HIGHER, &[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&LOWER, &[1.0, 1.01, 0.99], &[1.2, 1.21, 1.19]),
            Verdict::Worse
        );
        assert!((worsening(&HIGHER, &[100.0], &[85.0]) - 0.15).abs() < 1e-12);
        assert!((worsening(&LOWER, &[1.0], &[1.2]) - 0.2).abs() < 1e-12);
        // Runs that do not overlap are called however wide they spread.
        assert_eq!(
            verdict(&HIGHER, &[100.0, 140.0, 180.0], &[30.0, 60.0, 90.0]),
            Verdict::Worse
        );
    }

    #[test]
    fn unresolved_when_a_spread_is_wider_than_the_bound_and_runs_overlap() {
        // B's runs spread 60 % around their median.
        assert_eq!(
            verdict(&HIGHER, &[100.0, 101.0, 99.0], &[70.0, 100.0, 130.0]),
            Verdict::Unresolved
        );
        // Even a median that fell 30 % is not called worse on such data.
        assert_eq!(
            verdict(&HIGHER, &[100.0, 140.0, 60.0], &[70.0, 100.0, 40.0]),
            Verdict::Unresolved
        );
        // The same noise over many repetitions does pin the medians down.
        let noisy = |centre: f64| -> Vec<f64> {
            (0..40)
                .map(|i| centre + f64::from(i % 5 - 2) * 7.0)
                .collect()
        };
        assert_eq!(
            verdict(&HIGHER, &noisy(100.0), &noisy(98.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&HIGHER, &noisy(100.0), &noisy(80.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn an_exact_metric_may_not_change_at_all() {
        assert_eq!(verdict(&EXACT, &[7.72], &[7.72]), Verdict::WithinBound);
        // Far inside the bound the acceptance check allows across seeds,
        // and still a change of the model.
        assert_eq!(verdict(&EXACT, &[7.72], &[7.73]), Verdict::Worse);
        assert_eq!(verdict(&EXACT, &[7.72], &[7.71]), Verdict::Better);
    }

    #[test]
    fn failed_share_may_not_rise() {
        assert_eq!(
            failed_share_verdict((1000.0, 0.0), (1000.0, 0.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            failed_share_verdict((1000.0, 0.0), (1000.0, 1.0)),
            Verdict::Worse
        );
        assert_eq!(
            failed_share_verdict((1000.0, 5.0), (1000.0, 4.0)),
            Verdict::Better
        );
    }
}
