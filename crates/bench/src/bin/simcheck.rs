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

use catapult::chaos::FaultPlan;
use shell::ltl::LtlMode;
use simcheck::elastic::{run_elastic, run_elastic_events, ElasticRepro, ElasticSpec};
use simcheck::repro::{ReproMode, ReproSpec};
use simcheck::scenario::{run_scenario, ScenarioSpec};
use simcheck::session::{run_session, SessionSpec};
use simcheck::shrink::ddmin;
use simcheck::{dcqcn_ref, er_check, Violation};

/// Parses `--flag value` from the command line.
fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

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

fn fail_with_repro(repro: ReproSpec, original_events: usize) -> ! {
    println!(
        "shrunk fault plan: {} -> {} event(s)",
        original_events,
        repro.events.len()
    );
    println!("first violation: {}", repro.first_violation);
    bench::write_raw("simcheck_repro.json", &repro.to_json());
    println!(
        "replay: cargo run -p bench --release --bin simcheck -- \
         --replay results/simcheck_repro.json"
    );
    std::process::exit(1);
}

fn replay(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    if text.contains("\"kind\": \"elastic\"") || text.contains("\"kind\":\"elastic\"") {
        let repro = ElasticRepro::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        });
        println!(
            "replaying elastic case: seed {} boards {} events {}",
            repro.seed,
            repro.boards,
            repro.events.len()
        );
        let violations = repro.replay();
        print!("{}", render(&violations));
        if violations.is_empty() {
            println!("repro did NOT reproduce (fixed, or stale artifact)");
            std::process::exit(1);
        }
        std::process::exit(0);
    }
    let spec = ReproSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    });
    println!(
        "replaying {} case: seed {} salt {} events {}",
        match spec.mode {
            ReproMode::Session => "session",
            ReproMode::Cluster => "cluster",
        },
        spec.seed,
        spec.salt,
        spec.events.len()
    );
    let violations = spec.replay();
    print!("{}", render(&violations));
    if violations.is_empty() {
        println!("repro did NOT reproduce (fixed, or stale artifact)");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Shrinks a failing elastic lease trace and captures the repro.
fn shrink_elastic(spec: &ElasticSpec) -> ElasticRepro {
    let minimal = ddmin(&spec.events, |events| {
        !run_elastic_events(spec, events).violations.is_empty()
    });
    let violations = run_elastic_events(spec, &minimal).violations;
    ElasticRepro::capture(spec, &minimal, &violations)
}

fn fail_with_elastic_repro(spec: &ElasticSpec) -> ! {
    let repro = shrink_elastic(spec);
    println!(
        "shrunk lease trace: {} -> {} event(s)",
        spec.events.len(),
        repro.events.len()
    );
    println!("first violation: {}", repro.first_violation);
    bench::write_raw("simcheck_elastic_repro.json", &repro.to_json());
    println!(
        "replay: cargo run -p bench --release --bin simcheck -- \
         --replay results/simcheck_elastic_repro.json"
    );
    std::process::exit(1);
}

/// Validates the planted elastic-scheduler bug (a defrag move that drops
/// the migrated tenant's ER/LTL caps): the scheduler oracle must catch
/// it on some seed, shrink the lease trace to ≤ 5 events, and replay
/// byte-identically twice from its own artifact.
fn validate_elastic_bug(seeds: u64) -> bool {
    println!("validating oracle sensitivity: elastic defrag cap drop");
    for seed in 0..seeds {
        let mut spec = ElasticSpec::generate(seed);
        spec.plant_defrag_bug = true;
        let out = run_elastic(&spec);
        if out.violations.is_empty() {
            continue; // this seed's trace never triggered a defrag move
        }
        println!("caught on seed {seed}: {}", out.violations[0]);
        let repro = shrink_elastic(&spec);
        println!(
            "shrunk lease trace: {} -> {} event(s)",
            spec.events.len(),
            repro.events.len()
        );
        if repro.events.len() > 5 {
            println!(
                "FAIL: minimal repro has {} events (> 5)",
                repro.events.len()
            );
            return false;
        }
        let json = repro.to_json();
        bench::write_raw("simcheck_elastic_repro.json", &json);
        let parsed = ElasticRepro::parse(&json).expect("own artifact parses");
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
    println!("FAIL: elastic defrag cap drop evaded the oracle on {seeds} seeds");
    false
}

/// Validates one planted bug: it must be caught on some seed, shrink
/// small, and replay byte-identically twice from its own artifact.
fn validate_planted_bug(name: &str, seeds: u64, plant: &dyn Fn(&mut SessionSpec)) -> bool {
    println!("validating oracle sensitivity: {name}");
    for seed in 0..seeds {
        let mut spec = SessionSpec::generate(seed);
        plant(&mut spec);
        let out = run_session(&spec);
        if out.violations.is_empty() {
            continue; // this seed's plan never provoked the bug
        }
        println!("caught on seed {seed}: {}", out.violations[0]);
        let repro = shrink_session(&spec, &out.violations);
        println!(
            "shrunk fault plan: {} -> {} event(s)",
            spec.plan.events.len(),
            repro.events.len()
        );
        if repro.events.len() > 3 {
            println!(
                "FAIL: minimal repro has {} events (> 3)",
                repro.events.len()
            );
            return false;
        }
        let json = repro.to_json();
        bench::write_raw("simcheck_repro.json", &json);
        // The repro must replay byte-identically, twice, from its own
        // serialized form.
        let parsed = ReproSpec::parse(&json).expect("own artifact parses");
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

/// Harness self-test over every planted bug, one per transport mode. A
/// blind oracle — one that would also wave through a buggy engine —
/// fails here, not in production.
fn validate_oracle(seeds: u64, elastic_only: bool) -> ! {
    let elastic_ok = validate_elastic_bug(seeds);
    if elastic_only {
        if elastic_ok {
            println!("oracle validation passed");
            std::process::exit(0);
        }
        std::process::exit(1);
    }
    let gbn_ok = validate_planted_bug("go-back-n retransmit loss", seeds, &|spec| {
        spec.lose_retransmits = 1;
    });
    let sr_ok = validate_planted_bug("selective-repeat sack omission", seeds, &|spec| {
        spec.mode = LtlMode::SelectiveRepeat;
        spec.omit_sacks = 4;
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
                fail_with_elastic_repro(&spec);
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
