//! Simulation-testing lane: seed sweeps over the protocol oracles,
//! conservation fuzzers and whole-cluster invariant scenarios, with
//! automatic shrinking of failures to a minimal, byte-identically
//! replayable reproduction in `results/simcheck_repro.json`.
//!
//! ```text
//! catapult simcheck [--quick] [--seeds N] [--seed-base B] [--inject-bug]
//!          [--validate-oracle] [--replay FILE] [--elastic-only]
//! ```
//!
//! * default: sweep `N` seeds (64) across every oracle, running each LTL
//!   session seed in *both* transport modes (go-back-N and selective
//!   repeat); exit 1 and write the shrunk repro on the first failure.
//!   A clean sweep prints each oracle row's events, checks, deliveries
//!   and scheduler decisions, then their total as the last line.
//! * `--inject-bug`: plant a known protocol bug per mode (go-back-N: the
//!   engine silently loses one retransmission; selective repeat: the
//!   receiver truncates SACK bitmaps) — the sweep must fail.
//! * `--validate-oracle`: end-to-end self-test of the harness: inject
//!   each planted bug, verify the matching oracle catches it, shrink the
//!   fault plan, verify the repro is minimal (≤ 3 events) and replays
//!   byte-identically twice. CI runs this so a silently-blind oracle
//!   fails the lane.
//! * `--replay FILE`: re-run a written repro; exits 0 when the recorded
//!   violation reproduces (prints the identical report every time). The
//!   file's `"kind"` (`session`, `cluster` or `elastic`) picks the case
//!   to replay it as.
//! * `--elastic-only`: run only the elastic HaaS scheduler differential
//!   (real [`haas`] scheduler vs. the pure `simcheck` reference) — the
//!   CI `haas-elastic-smoke` lane. `--validate-oracle` additionally
//!   plants a defrag bug that drops tenant caps and requires the
//!   scheduler oracle to catch it and shrink the trace to ≤ 5 events.
//!
//! Exit codes: 0 clean / reproduced, 1 violation / blind oracle / stale
//! repro, 2 unreadable `--replay` input or a refused command line.
//!
//! Everything below reading the flags is one table of oracles walked
//! by one sweep and one self-test; a new oracle is a row (and, when it
//! shrinks, its `kind` arm in [`replay`]).

use crate::{output, Args};
use shell::ltl::LtlMode;
use simcheck::elastic::ElasticSpec;
use simcheck::repro::{kind_of, Repro};
use simcheck::scenario::ScenarioSpec;
use simcheck::session::SessionSpec;
use simcheck::shrink::shrink;
use simcheck::{dcqcn_ref, er_check, Case, Outcome, Violation};

/// Canonical, deterministic failure report — replays diff this text.
fn render(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out.push_str(&format!("total: {} violation(s)\n", violations.len()));
    out
}

/// One row of the oracle table.
trait Oracle {
    /// The row's name and tag, as its report line prints them.
    fn label(&self) -> (&'static str, &'static str);

    /// Runs one seed, with the row's known bug planted under
    /// `--inject-bug`. A violation is reported — shrunk to a repro
    /// artifact when the oracle has events to shrink — and exits 1.
    fn sweep(&self, seed: u64, inject_bug: bool) -> Outcome;

    /// Self-test of a row that knows a bug to plant: the bug must be
    /// caught on some seed, shrink small and replay byte-identically.
    fn validate(&self, _seeds: u64) -> bool {
        true
    }
}

/// A seed-only oracle: nothing to shrink, the seed is the repro.
struct SeedOnly {
    name: &'static str,
    check: fn(u64, u32) -> Vec<Violation>,
    steps: u32,
}

impl Oracle for SeedOnly {
    fn label(&self) -> (&'static str, &'static str) {
        (self.name, "")
    }

    fn sweep(&self, seed: u64, _inject_bug: bool) -> Outcome {
        let violations = (self.check)(seed, self.steps);
        if !violations.is_empty() {
            println!("seed {seed}: {} oracle fired", self.name);
            print!("{}", render(&violations));
            println!("replay: rerun with --seeds 1 --seed-base {seed}");
            std::process::exit(1);
        }
        Outcome::default()
    }
}

/// A shrinkable oracle: a [`Case`] plus how the driver labels it, where
/// it files the repro and which bug it knows how to plant.
struct Lane<C: Case> {
    /// `seed N{tag}: {name} oracle fired`.
    name: &'static str,
    tag: &'static str,
    /// Artifact file name under `results/`.
    file: &'static str,
    /// What the events are a shrunk subset of.
    trace: &'static str,
    /// Readies a generated case for this lane, planting the lane's bug
    /// when the flag is set.
    prepare: fn(&mut C, bool),
    /// The planted bug's name and the event count its repro must shrink
    /// to.
    bug: Option<(&'static str, usize)>,
}

const FAULT_PLAN_FILE: &str = "simcheck_repro.json";

impl<C: Case> Lane<C> {
    fn case(&self, seed: u64, plant: bool) -> C {
        let mut case = C::generate(seed);
        (self.prepare)(&mut case, plant);
        case
    }

    /// Shrinks a failing case, reporting by how much.
    fn shrink_reporting(&self, case: &C) -> Repro<C> {
        let repro = shrink(case);
        println!(
            "shrunk {}: {} -> {} event(s)",
            self.trace,
            case.events().len(),
            repro.case.events().len()
        );
        repro
    }
}

impl<C: Case> Oracle for Lane<C> {
    fn label(&self) -> (&'static str, &'static str) {
        (self.name, self.tag)
    }

    fn sweep(&self, seed: u64, inject_bug: bool) -> Outcome {
        let case = self.case(seed, inject_bug);
        let out = case.run();
        if !out.violations.is_empty() {
            println!("seed {seed}{}: {} oracle fired", self.tag, self.name);
            print!("{}", render(&out.violations));
            let repro = self.shrink_reporting(&case);
            println!("first violation: {}", repro.first_violation);
            output::write_raw(self.file, &repro.to_json());
            println!(
                "replay: cargo run -p bench --release --bin catapult -- \
                 simcheck --replay results/{}",
                self.file
            );
            std::process::exit(1);
        }
        out
    }

    fn validate(&self, seeds: u64) -> bool {
        let Some((bug, max_events)) = self.bug else {
            return true;
        };
        println!("validating oracle sensitivity: {bug}");
        for seed in 0..seeds {
            let case = self.case(seed, true);
            let Some(first) = case.run().violations.into_iter().next() else {
                continue; // this seed never provoked the bug
            };
            println!("caught on seed {seed}: {first}");
            let repro = self.shrink_reporting(&case);
            let events = repro.case.events().len();
            if events > max_events {
                println!("FAIL: minimal repro has {events} events (> {max_events})");
                return false;
            }
            let json = repro.to_json();
            output::write_raw(self.file, &json);
            // The repro must replay byte-identically, twice, from its own
            // serialized form.
            let parsed = Repro::<C>::parse(&json).expect("own artifact parses");
            let first = render(&parsed.replay());
            let second = render(&parsed.replay());
            if first != second || first.contains("total: 0") {
                println!("FAIL: replay is not byte-identical or lost the violation");
                print!("--- first ---\n{first}--- second ---\n{second}");
                return false;
            }
            println!("replay is byte-identical across two runs:");
            print!("{first}");
            return true;
        }
        println!("FAIL: {bug} evaded the oracle on {seeds} seeds");
        false
    }
}

fn unreadable(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn replay_as<C: Case>(path: &str, text: &str) -> ! {
    let repro =
        Repro::<C>::parse(text).unwrap_or_else(|e| unreadable(format!("cannot parse {path}: {e}")));
    let events = repro.case.events().len();
    println!("replaying {} case: {events} event(s)", C::KIND);
    let violations = repro.replay();
    print!("{}", render(&violations));
    if violations.is_empty() {
        println!("repro did NOT reproduce (fixed, or stale artifact)");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// The one place a repro's `kind` picks its [`Case`].
fn replay(path: &str) -> ! {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| unreadable(format!("cannot read {path}: {e}")));
    match kind_of(&text).as_deref() {
        Ok(SessionSpec::KIND) => replay_as::<SessionSpec>(path, &text),
        Ok(ScenarioSpec::KIND) => replay_as::<ScenarioSpec>(path, &text),
        Ok(ElasticSpec::KIND) => replay_as::<ElasticSpec>(path, &text),
        Ok(other) => unreadable(format!(
            "cannot parse {path}: unknown kind {other:?} (known: {}, {}, {})",
            SessionSpec::KIND,
            ScenarioSpec::KIND,
            ElasticSpec::KIND
        )),
        Err(e) => unreadable(format!("cannot parse {path}: {e}")),
    }
}

pub fn run(args: &Args) {
    output::header(
        "simcheck",
        "protocol oracles, invariant checkers and shrinking fuzzer",
    );

    if let Some(path) = args.value::<String>("--replay") {
        replay(&path);
    }

    let seeds = args.value("--seeds").unwrap_or(64);
    let seed_base = args.value("--seed-base").unwrap_or(0);
    let inject_bug = args.switch("--inject-bug");
    let (dcqcn_steps, er_ops, scenario_every) = if args.switch("--quick") {
        (150, 150, 8)
    } else {
        (500, 400, 4)
    };

    // The oracle table, in sweep order: every how many seeds a row runs,
    // and the row. `--elastic-only` is the first row alone.
    let table: [(u64, &dyn Oracle); 6] = [
        (
            1,
            &Lane::<ElasticSpec> {
                name: "elastic scheduler",
                tag: "",
                file: "simcheck_elastic_repro.json",
                trace: "lease trace",
                // A defrag move that drops the migrated tenant's caps.
                prepare: |spec, bug| spec.plant_defrag_bug = bug,
                bug: Some(("elastic defrag cap drop", 5)),
            },
        ),
        (
            1,
            &SeedOnly {
                name: "DC-QCN differential",
                check: dcqcn_ref::check_dcqcn,
                steps: dcqcn_steps,
            },
        ),
        (
            1,
            &SeedOnly {
                name: "Elastic Router conservation",
                check: er_check::check_er,
                steps: er_ops,
            },
        ),
        (
            1,
            &Lane::<SessionSpec> {
                name: "LTL differential",
                tag: " (gbn)",
                file: FAULT_PLAN_FILE,
                trace: "fault plan",
                prepare: |spec, bug| spec.lose_retransmits = bug as u32,
                bug: Some(("go-back-n retransmit loss", 3)),
            },
        ),
        (
            1,
            &Lane::<SessionSpec> {
                name: "LTL differential",
                tag: " (sr)",
                file: FAULT_PLAN_FILE,
                trace: "fault plan",
                prepare: |spec, bug| {
                    spec.mode = LtlMode::SelectiveRepeat;
                    spec.omit_sacks = if bug { 4 } else { 0 };
                },
                bug: Some(("selective-repeat sack omission", 3)),
            },
        ),
        (
            scenario_every,
            &Lane::<ScenarioSpec> {
                name: "cluster invariant",
                tag: "",
                file: FAULT_PLAN_FILE,
                trace: "fault plan",
                prepare: |_, _| {},
                bug: None,
            },
        ),
    ];
    let table = if args.switch("--elastic-only") {
        &table[..1]
    } else {
        &table[..]
    };

    if args.switch("--validate-oracle") {
        // Harness self-test. A blind oracle — one that would also wave
        // through a buggy engine — fails here, not in production; every
        // row runs even after one fails, so the log names them all.
        let ok = table
            .iter()
            .fold(true, |ok, (_, oracle)| oracle.validate(seeds.max(16)) && ok);
        if ok {
            println!("oracle validation passed");
        }
        std::process::exit(if ok { 0 } else { 1 });
    }

    let mut rows = vec![Outcome::default(); table.len()];
    for i in 0..seeds {
        for ((every, oracle), row) in table.iter().zip(&mut rows) {
            if i % every == 0 {
                let out = oracle.sweep(seed_base + i, inject_bug);
                tally(row, &out);
            }
        }
    }

    if inject_bug {
        println!("FAIL: --inject-bug sweep finished clean; the oracle is blind");
        std::process::exit(1);
    }
    // One line per row, so a moved total traces to its oracle; the total
    // stays the last line.
    let mut total = Outcome::default();
    for ((_, oracle), row) in table.iter().zip(&rows) {
        let (name, tag) = oracle.label();
        println!("  {name}{tag}: {}", counts(row));
        tally(&mut total, row);
    }
    println!("{seeds} seed(s) clean: {}", counts(&total));
}

/// Adds `out`'s counters to `into`.
fn tally(into: &mut Outcome, out: &Outcome) {
    into.events += out.events;
    into.checks += out.checks;
    into.delivered += out.delivered;
    into.decisions += out.decisions;
}

fn counts(o: &Outcome) -> String {
    format!(
        "{} events, {} oracle checks, {} deliveries, {} scheduler decisions",
        o.events, o.checks, o.delivered, o.decisions
    )
}
