//! Simulation-testing lane: seed sweeps over the protocol oracles,
//! conservation fuzzers and whole-cluster invariant scenarios, with
//! automatic shrinking of failures to a minimal, byte-identically
//! replayable reproduction in `results/simcheck_repro.json`.
//!
//! ```text
//! simcheck [--quick] [--seeds N] [--seed-base B] [--inject-bug]
//!          [--validate-oracle] [--replay FILE]
//! ```
//!
//! * default: sweep `N` seeds (64) across every oracle, running each LTL
//!   session seed in *both* transport modes (go-back-N and selective
//!   repeat); exit 1 and write the shrunk repro on the first failure.
//! * `--inject-bug`: plant a known protocol bug per mode (go-back-N: the
//!   engine silently loses one retransmission; selective repeat: the
//!   receiver truncates SACK bitmaps) — the sweep must fail.
//! * `--validate-oracle`: end-to-end self-test of the harness: inject
//!   each planted bug, verify the matching oracle catches it, shrink the
//!   fault plan, verify the repro is minimal (≤ 3 events) and replays
//!   byte-identically twice. CI runs this so a silently-blind oracle
//!   fails the lane.
//! * `--replay FILE`: re-run a written repro; exits 0 when the recorded
//!   violation reproduces (prints the identical report every time).
//!   Elastic-scheduler repros (`"kind": "elastic"`) are detected and
//!   dispatched automatically.
//! * `--elastic-only`: run only the elastic HaaS scheduler differential
//!   (real [`haas`] scheduler vs. the pure `simcheck` reference) — the
//!   CI `haas-elastic-smoke` lane. `--validate-oracle` additionally
//!   plants a defrag bug that drops tenant caps and requires the
//!   scheduler oracle to catch it and shrink the trace to ≤ 5 events.

use bench::arg_value;
use catapult::chaos::FaultPlan;
use catapult::telemetry::json;
use serde::Value;
use shell::ltl::LtlMode;
use simcheck::elastic::{run_elastic, run_elastic_events, ElasticRepro, ElasticSpec};
use simcheck::repro::{ReproMode, ReproSpec};
use simcheck::scenario::{run_scenario, ScenarioSpec};
use simcheck::session::{run_session, SessionSpec};
use simcheck::shrink::ddmin;
use simcheck::{dcqcn_ref, er_check, Violation};

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

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

/// Shrinks a failing spec's fault plan to a minimal one that still
/// violates and builds its repro. `plan` projects the spec's fault plan,
/// `run` returns one run's violations, `repro` is the matching
/// `ReproSpec` constructor.
fn shrink<S: Clone>(
    spec: &S,
    violations: &[Violation],
    plan: fn(&mut S) -> &mut FaultPlan,
    run: fn(&S) -> Vec<Violation>,
    repro: fn(&S, &[Violation]) -> ReproSpec,
) -> ReproSpec {
    let mut shrunk = spec.clone();
    let minimal = ddmin(&plan(&mut shrunk).events, |events| {
        let mut probe = spec.clone();
        plan(&mut probe).events = events.to_vec();
        !run(&probe).is_empty()
    });
    plan(&mut shrunk).events = minimal;
    let final_violations = run(&shrunk);
    let caught = if final_violations.is_empty() {
        violations
    } else {
        &final_violations
    };
    repro(&shrunk, caught)
}

fn shrink_session(spec: &SessionSpec, violations: &[Violation]) -> ReproSpec {
    shrink(
        spec,
        violations,
        |s| &mut s.plan,
        |s| run_session(s).violations,
        ReproSpec::from_session,
    )
}

fn shrink_scenario(spec: &ScenarioSpec, violations: &[Violation]) -> ReproSpec {
    shrink(
        spec,
        violations,
        |s| &mut s.plan,
        |s| run_scenario(s).violations,
        ReproSpec::from_scenario,
    )
}

/// What the driver needs from a repro artifact, whichever oracle wrote
/// it: [`ReproSpec`] (LTL session / cluster scenario fault plans) and
/// [`ElasticRepro`] (scheduler lease traces) go through one copy of the
/// fail, validate and replay paths.
trait Repro: Sized {
    /// Artifact file name under `results/`.
    const FILE: &'static str;
    /// What the events are a shrunk subset of.
    const TRACE: &'static str;
    fn events_len(&self) -> usize;
    fn first_violation(&self) -> &str;
    fn to_json(&self) -> String;
    fn parse(text: &str) -> Result<Self, String>;
    fn replay(&self) -> Vec<Violation>;
    /// The line `--replay` prints before re-running the case.
    fn describe(&self) -> String;
}

impl Repro for ReproSpec {
    const FILE: &'static str = "simcheck_repro.json";
    const TRACE: &'static str = "fault plan";
    fn events_len(&self) -> usize {
        self.events.len()
    }
    fn first_violation(&self) -> &str {
        &self.first_violation
    }
    fn to_json(&self) -> String {
        self.to_json()
    }
    fn parse(text: &str) -> Result<Self, String> {
        ReproSpec::parse(text)
    }
    fn replay(&self) -> Vec<Violation> {
        self.replay()
    }
    fn describe(&self) -> String {
        let mode = match self.mode {
            ReproMode::Session => "session",
            ReproMode::Cluster => "cluster",
        };
        format!(
            "replaying {mode} case: seed {} salt {} events {}",
            self.seed,
            self.salt,
            self.events.len()
        )
    }
}

impl Repro for ElasticRepro {
    const FILE: &'static str = "simcheck_elastic_repro.json";
    const TRACE: &'static str = "lease trace";
    fn events_len(&self) -> usize {
        self.events.len()
    }
    fn first_violation(&self) -> &str {
        &self.first_violation
    }
    fn to_json(&self) -> String {
        self.to_json()
    }
    fn parse(text: &str) -> Result<Self, String> {
        ElasticRepro::parse(text)
    }
    fn replay(&self) -> Vec<Violation> {
        self.replay()
    }
    fn describe(&self) -> String {
        format!(
            "replaying elastic case: seed {} boards {} events {}",
            self.seed,
            self.boards,
            self.events.len()
        )
    }
}

fn fail_with_repro<R: Repro>(repro: R, original_events: usize) -> ! {
    println!(
        "shrunk {}: {} -> {} event(s)",
        R::TRACE,
        original_events,
        repro.events_len()
    );
    println!("first violation: {}", repro.first_violation());
    bench::write_raw(R::FILE, &repro.to_json());
    println!(
        "replay: cargo run -p bench --release --bin simcheck -- \
         --replay results/{}",
        R::FILE
    );
    std::process::exit(1);
}

fn replay_as<R: Repro>(path: &str, text: &str) -> ! {
    let repro = R::parse(text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    });
    println!("{}", repro.describe());
    let violations = repro.replay();
    print!("{}", render(&violations));
    if violations.is_empty() {
        println!("repro did NOT reproduce (fixed, or stale artifact)");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn replay(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    // Scheduler repros carry a top-level "kind"; fault-plan repros carry
    // a "mode" instead (and report their own parse errors otherwise).
    match json::parse(&text) {
        Ok(Value::Object(fields)) if fields.iter().any(|(key, _)| key == "kind") => {
            replay_as::<ElasticRepro>(path, &text)
        }
        _ => replay_as::<ReproSpec>(path, &text),
    }
}

/// Shrinks a failing elastic lease trace and captures the repro.
fn shrink_elastic(spec: &ElasticSpec) -> ElasticRepro {
    let minimal = ddmin(&spec.events, |events| {
        !run_elastic_events(spec, events).violations.is_empty()
    });
    let violations = run_elastic_events(spec, &minimal).violations;
    ElasticRepro::capture(spec, &minimal, &violations)
}

/// Validates one planted bug: it must be caught on some seed, shrink to
/// at most `max_events` events, and replay byte-identically twice from
/// its own artifact. `catch` runs one seed with the bug planted and, when
/// the oracle fires, returns the first violation, the unshrunk event
/// count and the shrunk repro.
fn validate_planted_bug<R: Repro>(
    name: &str,
    seeds: u64,
    max_events: usize,
    catch: impl Fn(u64) -> Option<(Violation, usize, R)>,
) -> bool {
    println!("validating oracle sensitivity: {name}");
    for seed in 0..seeds {
        let Some((first, original_events, repro)) = catch(seed) else {
            continue; // this seed never provoked the bug
        };
        println!("caught on seed {seed}: {first}");
        println!(
            "shrunk {}: {} -> {} event(s)",
            R::TRACE,
            original_events,
            repro.events_len()
        );
        if repro.events_len() > max_events {
            println!(
                "FAIL: minimal repro has {} events (> {max_events})",
                repro.events_len()
            );
            return false;
        }
        let json = repro.to_json();
        bench::write_raw(R::FILE, &json);
        // The repro must replay byte-identically, twice, from its own
        // serialized form.
        let parsed = R::parse(&json).expect("own artifact parses");
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
    println!("FAIL: {name} evaded the oracle on {seeds} seeds");
    false
}

/// One seed of a planted LTL-session bug (`plant` arms it on the spec).
fn catch_session(seed: u64, plant: fn(&mut SessionSpec)) -> Option<(Violation, usize, ReproSpec)> {
    let mut spec = SessionSpec::generate(seed);
    plant(&mut spec);
    let first = run_session(&spec).violations.into_iter().next()?;
    let repro = shrink_session(&spec, std::slice::from_ref(&first));
    Some((first, spec.plan.events.len(), repro))
}

/// One seed of the planted elastic-scheduler bug: a defrag move that
/// drops the migrated tenant's ER/LTL caps.
fn catch_elastic(seed: u64) -> Option<(Violation, usize, ElasticRepro)> {
    let mut spec = ElasticSpec::generate(seed);
    spec.plant_defrag_bug = true;
    let first = run_elastic(&spec).violations.into_iter().next()?;
    Some((first, spec.events.len(), shrink_elastic(&spec)))
}

/// Harness self-test over every planted bug, one per transport mode. A
/// blind oracle — one that would also wave through a buggy engine —
/// fails here, not in production.
fn validate_oracle(seeds: u64, elastic_only: bool) -> ! {
    let elastic_ok = validate_planted_bug("elastic defrag cap drop", seeds, 5, catch_elastic);
    if elastic_only {
        if elastic_ok {
            println!("oracle validation passed");
            std::process::exit(0);
        }
        std::process::exit(1);
    }
    let gbn_ok = validate_planted_bug("go-back-n retransmit loss", seeds, 3, |seed| {
        catch_session(seed, |spec| spec.lose_retransmits = 1)
    });
    let sr_ok = validate_planted_bug("selective-repeat sack omission", seeds, 3, |seed| {
        catch_session(seed, |spec| {
            spec.mode = LtlMode::SelectiveRepeat;
            spec.omit_sacks = 4;
        })
    });
    if gbn_ok && sr_ok && elastic_ok {
        println!("oracle validation passed");
        std::process::exit(0);
    }
    std::process::exit(1);
}

fn main() {
    bench::header(
        "simcheck",
        "protocol oracles, invariant checkers and shrinking fuzzer",
    );

    if let Some(path) = arg_value("--replay") {
        replay(&path);
    }

    let quick = bench::quick_mode();
    let seeds: u64 = arg_value("--seeds")
        .map(|v| v.parse().expect("--seeds takes an integer"))
        .unwrap_or(64);
    let seed_base: u64 = arg_value("--seed-base")
        .map(|v| v.parse().expect("--seed-base takes an integer"))
        .unwrap_or(0);
    let inject_bug = flag("--inject-bug");
    let elastic_only = flag("--elastic-only");
    let (dcqcn_steps, er_ops) = if quick { (150, 150) } else { (500, 400) };
    let scenario_every = if quick { 8 } else { 4 };

    if flag("--validate-oracle") {
        validate_oracle(seeds.max(16), elastic_only);
    }

    let mut totals = (0u64, 0u64, 0u64); // events, checks, delivered
    let mut elastic_decisions = 0u64;
    for i in 0..seeds {
        let seed = seed_base + i;

        {
            let mut spec = ElasticSpec::generate(seed);
            if inject_bug {
                spec.plant_defrag_bug = true;
            }
            let out = run_elastic(&spec);
            totals.0 += spec.events.len() as u64;
            elastic_decisions += out.decisions;
            if !out.violations.is_empty() {
                println!("seed {seed}: elastic scheduler oracle fired");
                print!("{}", render(&out.violations));
                fail_with_repro(shrink_elastic(&spec), spec.events.len());
            }
        }
        if elastic_only {
            continue;
        }

        let v = dcqcn_ref::check_dcqcn(seed, dcqcn_steps);
        if !v.is_empty() {
            println!("seed {seed}: DC-QCN differential oracle fired");
            print!("{}", render(&v));
            println!("replay: rerun with --seeds 1 --seed-base {seed}");
            std::process::exit(1);
        }

        let v = er_check::check_er(seed, er_ops);
        if !v.is_empty() {
            println!("seed {seed}: Elastic Router conservation oracle fired");
            print!("{}", render(&v));
            println!("replay: rerun with --seeds 1 --seed-base {seed}");
            std::process::exit(1);
        }

        for mode in [LtlMode::GoBackN, LtlMode::SelectiveRepeat] {
            let mut spec = SessionSpec::generate(seed).with_mode(mode);
            if inject_bug {
                match mode {
                    LtlMode::GoBackN => spec.lose_retransmits = 1,
                    LtlMode::SelectiveRepeat => spec.omit_sacks = 4,
                }
            }
            let out = run_session(&spec);
            totals.0 += out.events;
            totals.1 += out.checks;
            totals.2 += out.delivered;
            if !out.violations.is_empty() {
                println!("seed {seed} ({mode}): LTL differential oracle fired");
                print!("{}", render(&out.violations));
                let events = spec.plan.events.len();
                fail_with_repro(shrink_session(&spec, &out.violations), events);
            }
        }

        if i % scenario_every == 0 {
            let spec = ScenarioSpec::generate(seed);
            let out = run_scenario(&spec);
            totals.0 += out.events;
            totals.1 += out.checks;
            totals.2 += out.delivered;
            if !out.violations.is_empty() {
                println!("seed {seed}: cluster invariant oracle fired");
                print!("{}", render(&out.violations));
                let events = spec.plan.events.len();
                fail_with_repro(shrink_scenario(&spec, &out.violations), events);
            }
        }
    }

    if inject_bug {
        println!("FAIL: --inject-bug sweep finished clean; the oracle is blind");
        std::process::exit(1);
    }
    println!(
        "{seeds} seed(s) clean: {} events, {} oracle checks, {} deliveries, \
         {elastic_decisions} scheduler decisions",
        totals.0, totals.1, totals.2
    );
}
