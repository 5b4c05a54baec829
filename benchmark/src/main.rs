//! The repository benchmark.
//!
//! ```text
//! repo-benchmark run [--workload NAME]... [--seed N] [--seconds S]
//!                    [--trace 0|1] [--reps N] [--out FILE]
//! repo-benchmark compare A.json B.json
//! ```
//!
//! `run` builds each workload from the libraries' public APIs, measures
//! it, checks its outputs, prints every metric by name with its unit and
//! ends with one JSON result object per workload — the end-to-end metrics
//! with tracing off, the per-layer metrics with `--trace 1`. It exits
//! non-zero if any correctness check failed. See `README.md`.

mod alloc;
mod compare;
mod json;
mod metrics;
mod observer;
mod probes;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::TrackingAlloc = alloc::TrackingAlloc;

const USAGE: &str = "usage: repo-benchmark run [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--reps N] [--out FILE]\n       \
                     repo-benchmark compare A.json B.json";

/// Seconds one run measures for when `--seconds` is not given; the same
/// as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct RunArgs {
    workloads: Vec<&'static workloads::Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    reps: Option<usize>,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        reps: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => parsed
                .workloads
                .push(workloads::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("no workload {value:?}; choose from {}", names.join(", "))
                })?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                parsed.traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--reps" => parsed.reps = Some(value.parse().ok().filter(|&n| n >= 1).ok_or_else(bad)?),
            "--out" => parsed.out = Some(value.to_string()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = workloads::ALL.iter().collect();
    }
    Ok(parsed)
}

/// The release profile a manifest declares, whitespace-insensitive.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
        .collect()
}

/// This package sits outside the root workspace, so it carries its own
/// copy of `[profile.release]`. If the copy drifts, the benchmark times a
/// differently optimized program from the one users build: refuse.
fn check_release_profile() -> Result<(), String> {
    let root = release_profile(include_str!("../../Cargo.toml"));
    let own = release_profile(include_str!("../Cargo.toml"));
    if root == own && !root.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root manifest's {root:?}"
        ))
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    check_release_profile()?;
    if cfg!(debug_assertions) {
        return Err("built without optimization; use `cargo run --release`".into());
    }
    let mut all_correct = true;
    let mut entries = Vec::new();
    let mut lines = Vec::new();
    let mut probes = None;
    if args.traced {
        let passes: Vec<run::Traced> = args
            .workloads
            .iter()
            .map(|w| run::measure_traced(w, args.seed))
            .collect();
        let probed = run::measure_probes(args.seed, args.seconds);
        for pass in &passes {
            pass.print();
            all_correct &= pass.correct();
            entries.push(pass.to_json());
            lines.push(pass.result_line(&probed));
        }
        probed.print();
        all_correct &= probed.correct();
        probes = Some(probed.to_json());
        let path = report::trace_path();
        report::write_trace_file(&path, &passes, &probed)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
    } else {
        for w in &args.workloads {
            let measured = run::measure(w, args.seed, args.seconds, args.reps);
            measured.print();
            all_correct &= measured.correct();
            entries.push(measured.to_json());
            lines.push(measured.result_line());
        }
    }
    if let Some(out) = &args.out {
        let provenance = report::provenance(args.seed, args.seconds, args.traced);
        report::write_result_file(out.as_ref(), provenance, entries, probes)
            .map_err(|e| format!("{out}: {e}"))?;
        println!("results written to {out}");
    }
    // One result object per workload, last: with a single `--workload`
    // the final line of standard output is that workload's result.
    for line in lines {
        println!("{line}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    alloc::pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, [a, b])) if cmd == "compare" => {
            compare::compare_files(a, b).map(|worse| worse == 0)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profiles_of_both_manifests_agree() {
        assert_eq!(check_release_profile(), Ok(()));
        assert_eq!(
            release_profile(
                "[a]\nx=1\n[profile.release]\nlto = \"thin\"\n# c\n\ncodegen-units=1\n[b]\ny=2"
            ),
            vec!["lto=\"thin\"", "codegen-units=1"]
        );
    }

    #[test]
    fn run_arguments_parse_as_the_driver_passes_them() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_run_args(&argv(
            "--workload ltl_volley --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workloads.len(), 1);
        assert_eq!((a.seed, a.seconds, a.traced), (7, 3.0, true));
        let all = parse_run_args(&[]).expect("valid");
        assert_eq!(all.workloads.len(), workloads::ALL.len());
        assert!(!all.traced);
        assert!(parse_run_args(&argv("--workload nope")).is_err());
        assert!(parse_run_args(&argv("--seconds 0")).is_err());
        assert!(parse_run_args(&argv("--trace 2")).is_err());
        assert!(parse_run_args(&argv("--seed")).is_err());
    }
}
