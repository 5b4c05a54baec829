//! `catapult <experiment> [flags]`: regenerates one table or figure of
//! the paper, or runs one of the repository's checking lanes, e.g.
//! `cargo run -p bench --release --bin catapult -- fig10 --quick`.
//!
//! Each experiment prints its table on stdout and writes its results as
//! JSON under `results/`; `--quick`, where an experiment has it, runs a
//! fast smoke-scale pass. [`EXPERIMENTS`] is the one table of
//! subcommands, and the command line is checked against its row before
//! anything runs: an unknown experiment or flag, a missing value or a
//! value out of its domain prints one line on stderr and exits 2. A bare
//! `catapult` prints every row.

mod chaos;
mod fig05;
mod fig06;
mod fig07;
mod fig08;
mod fig10;
mod fig11;
mod fig12;
mod haas_elastic;
mod ltl_ab;
mod mem;
mod output;
mod simcheck;
mod tab_crypto;
mod tab_deployment;
mod tab_power;

use std::fmt::Debug;
use std::str::FromStr;

use catapult::chaos::Preset;

/// Tracks the heap's high-water mark for `fig10 --full-scale
/// --rss-limit-mb`.
#[global_allocator]
static ALLOC: mem::TrackingAlloc = mem::TrackingAlloc;

/// A subcommand, each flag it reads as its usage shows it (a flag that
/// takes a value names the value's domain, see [`check`]) and its `run`.
type Experiment = (&'static str, &'static [&'static str], fn(&Args));

/// Every experiment, in the paper's order, then the checking lanes.
#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 14] = [
    ("fig05", &[], fig05::run),
    ("fig06", &["--quick"], fig06::run),
    ("fig07", &["--quick"], fig07::run),
    ("fig08", &["--quick"], fig08::run),
    ("fig10", &["--quick", "--trace", "--full-scale", "--rss-limit-mb MIB"], fig10::run),
    ("fig11", &["--quick"], fig11::run),
    ("fig12", &["--quick"], fig12::run),
    ("tab_crypto", &[], tab_crypto::run),
    ("tab_deployment", &[], tab_deployment::run),
    ("tab_power", &[], tab_power::run),
    ("chaos", &["--quick", "--seed N", "--preset PRESET", "--fault-rate RATE"], chaos::run),
    ("simcheck", &["--quick", "--seeds COUNT", "--seed-base N", "--inject-bug", "--validate-oracle",
        "--replay FILE", "--elastic-only"], simcheck::run),
    ("ltl_ab", &["--quick", "--seed N", "--check-win"], ltl_ab::run),
    ("haas_elastic", &["--quick", "--check-win", "--full-scale"], haas_elastic::run),
];

/// Whether `value` lies in the domain a row names `domain`; `Err` says
/// what does.
fn check(domain: &str, value: &str) -> Result<(), &'static str> {
    let finite = value.parse::<f64>().ok().filter(|x| x.is_finite());
    let (ok, expected) = match domain {
        "N" => (value.parse::<u64>().is_ok(), "an unsigned integer"),
        "COUNT" => (
            value.parse::<u64>().is_ok_and(|n| n >= 1),
            "an integer >= 1",
        ),
        "RATE" => (finite.is_some_and(|x| x >= 0.0), "a finite number >= 0"),
        "MIB" => (finite.is_some_and(|x| x > 0.0), "a finite number > 0"),
        "PRESET" => (
            Preset::parse(value).is_some(),
            "random, rack-isolation, golden-image or lossy-link",
        ),
        "FILE" => (true, ""),
        _ => unreachable!("no domain {domain}"),
    };
    ok.then_some(()).ok_or(expected)
}

/// The flags given to one experiment, each value already checked.
pub struct Args {
    row: &'static [&'static str],
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Reads `words`, what follows the subcommand, against its `row`.
    fn parse(
        row: &'static [&'static str],
        mut words: impl Iterator<Item = String>,
    ) -> Result<Args, String> {
        let mut given = Vec::new();
        while let Some(word) = words.next() {
            let spec = row
                .iter()
                .find(|spec| spec.split(' ').next() == Some(&word))
                .ok_or_else(|| format!("unknown flag {word:?}"))?;
            let value = match spec.split_once(' ') {
                None => None,
                Some((flag, domain)) => {
                    let value = words
                        .next()
                        .ok_or_else(|| format!("{flag} takes a value"))?;
                    check(domain, &value)
                        .map_err(|expected| format!("{flag} takes {expected}, not {value:?}"))?;
                    Some(value)
                }
            };
            given.push((word, value));
        }
        Ok(Args { row, given })
    }

    /// Whether switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given(flag).is_some()
    }

    /// The value given for `flag` (the first, if given twice); `None` for
    /// a switch.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T>
    where
        T::Err: Debug,
    {
        let parsed = self.given(flag)?.as_deref()?.parse::<T>();
        Some(parsed.expect("checked when the command line was read"))
    }

    fn given(&self, flag: &str) -> Option<&Option<String>> {
        assert!(
            self.row
                .iter()
                .any(|spec| spec.split(' ').next() == Some(flag)),
            "{flag} is not in its experiment's row"
        );
        self.given.iter().find(|(f, _)| f == flag).map(|(_, v)| v)
    }
}

/// `catapult <name> [--flag VALUE]...`.
fn synopsis(name: &str, row: &[&str]) -> String {
    let flags: String = row.iter().map(|spec| format!(" [{spec}]")).collect();
    format!("catapult {name}{flags}")
}

/// Prints `text` on stderr and exits 2: the command line was refused.
fn refuse(text: String) -> ! {
    eprintln!("{text}");
    std::process::exit(2);
}

fn main() {
    let mut words = std::env::args().skip(1);
    let Some(name) = words.next() else {
        let rows: Vec<_> = EXPERIMENTS
            .iter()
            .map(|(n, row, _)| synopsis(n, row))
            .collect();
        refuse(format!(
            "usage: catapult <experiment> [flags], one of:\n  {}",
            rows.join("\n  ")
        ));
    };
    let Some(&(_, row, run)) = EXPERIMENTS.iter().find(|(n, _, _)| *n == name) else {
        let names: Vec<_> = EXPERIMENTS.iter().map(|(n, _, _)| *n).collect();
        refuse(format!(
            "catapult: unknown experiment {name:?}; usage: catapult <{}> [flags]",
            names.join("|")
        ));
    };
    let args = Args::parse(row, words).unwrap_or_else(|e| {
        refuse(format!(
            "catapult {name}: {e}; usage: {}",
            synopsis(&name, row)
        ))
    });
    run(&args);
}
