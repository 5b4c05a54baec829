//! The `catapult` command line: a command line it cannot use exits 2
//! with one line on stderr, before any experiment runs; and the exit
//! codes of `simcheck --replay`: 0 when the recorded violation
//! reproduces, 1 when it does not, 2 — with one line on stderr and no
//! panic — for input it cannot use.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn catapult() -> Command {
    Command::new(env!("CARGO_BIN_EXE_catapult"))
}

fn text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("utf-8 output")
}

/// Runs `catapult simcheck --replay path`; returns the exit code, stdout,
/// stderr.
fn replay(path: &Path) -> (Option<i32>, String, String) {
    let out = catapult()
        .args(["simcheck", "--replay"])
        .arg(path)
        .output()
        .expect("catapult runs");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// Runs `catapult args` in an empty directory of its own; returns the
/// exit code, stdout, stderr and that directory. Kills it and panics
/// unless it exits within a second.
fn run_briefly(args: &[&str], dir_name: &str) -> (Option<i32>, String, String, PathBuf) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cli")
        .join(dir_name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir is writable");
    let mut child = catapult()
        .args(args)
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("catapult runs");
    let started = Instant::now();
    while child
        .try_wait()
        .expect("catapult can be waited on")
        .is_none()
    {
        if started.elapsed() > Duration::from_secs(1) {
            child.kill().expect("catapult can be killed");
            panic!("catapult {args:?} still ran after a second");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = child.wait_with_output().expect("catapult exited");
    (out.status.code(), text(out.stdout), text(out.stderr), dir)
}

fn artifact(name: &str, content: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, content).expect("scratch file is writable");
    path
}

/// The selective-repeat planted bug (truncated SACK bitmaps) as
/// `--validate-oracle` shrinks and writes it.
const SACK_OMISSION: &str = r#"{
  "kind": "session", "seed": 0, "salt": 0, "transport": "sr",
  "lose_retransmits": 0, "omit_sacks": 4,
  "events": [{
    "at_ns": 1675026, "kind": "link_flap",
    "node": {"pod": 0, "tor": 1, "host": 0}, "down_ns": 300000
  }],
  "first_violation": "[1977107 ns] ltl.sack_tx: sack bitmap bit 1 (seq 15) = false, reassembly buffer says true"
}"#;

#[test]
fn unusable_input_exits_2_with_one_line() {
    let truncated = &SACK_OMISSION[..SACK_OMISSION.len() / 2];
    let cases = [
        (PathBuf::from("no/such/repro.json"), "cannot read"),
        (artifact("truncated.json", truncated), "cannot parse"),
        (artifact("array.json", "[]"), "expected an object"),
        // The format before `kind` replaced the fault-plan repros' `mode`.
        (
            artifact("no_kind.json", r#"{"mode": "session"}"#),
            "missing field \"kind\"",
        ),
        (
            artifact("martian.json", &SACK_OMISSION.replace("session", "martian")),
            "unknown kind \"martian\" (known: session, cluster, elastic)",
        ),
        // A number too wide for its field is refused, not wrapped.
        (
            artifact(
                "wide.json",
                &SACK_OMISSION.replace("\"tor\": 1", "\"tor\": 65537"),
            ),
            "tor: out of u16 range",
        ),
    ];
    for (path, expect) in cases {
        let (code, _, stderr) = replay(&path);
        assert_eq!(code, Some(2), "{}: {stderr}", path.display());
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.contains(expect), "{stderr}");
    }
}

#[test]
fn a_recorded_violation_reproduces_and_a_clean_case_is_stale() {
    let (code, stdout, _) = replay(&artifact("sack_omission.json", SACK_OMISSION));
    assert_eq!(code, Some(0), "{stdout}");
    let first = SACK_OMISSION.rsplit('"').nth(1).expect("first_violation");
    assert_eq!(stdout.lines().nth(2), Some(first), "{stdout}");
    assert!(stdout.ends_with("total: 4 violation(s)\n"), "{stdout}");

    let healthy = SACK_OMISSION.replace("\"omit_sacks\": 4", "\"omit_sacks\": 0");
    let (code, stdout, _) = replay(&artifact("healthy.json", &healthy));
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("total: 0 violation(s)\nrepro did NOT reproduce"));
}

#[test]
fn refused_command_lines_exit_2_with_one_line_before_running() {
    let cases: [(&[&str], &str); 13] = [
        (&["fig99"], "unknown experiment \"fig99\""),
        (&["fig05", "--qiuck"], "unknown flag \"--qiuck\""),
        (&["fig05", "--quick"], "unknown flag \"--quick\""),
        (&["fig05", "--seed", "1"], "unknown flag \"--seed\""),
        (&["ltl_ab", "--seed"], "--seed takes a value"),
        (
            &["chaos", "--seed", "x"],
            "--seed takes an unsigned integer, not \"x\"",
        ),
        (&["chaos", "--preset", "nope"], "--preset takes random, "),
        (&["chaos", "--fault-rate", "inf"], "not \"inf\""),
        (&["chaos", "--fault-rate", "nan"], "not \"nan\""),
        (&["chaos", "--fault-rate", "-1"], "not \"-1\""),
        (
            &["simcheck", "--seeds", "0"],
            "--seeds takes an integer >= 1",
        ),
        (
            &["fig10", "--full-scale", "--rss-limit-mb", "nan"],
            "--rss-limit-mb takes a finite number > 0",
        ),
        (&["tab_power", "--quick"], "unknown flag \"--quick\""),
    ];
    for (i, (args, expect)) in cases.into_iter().enumerate() {
        let (code, stdout, stderr, dir) = run_briefly(args, &format!("refused_{i}"));
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(expect), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(!dir.join("results").exists(), "{args:?} wrote results/");
    }
}

#[test]
fn bare_catapult_lists_every_experiment() {
    let (code, stdout, stderr, _) = run_briefly(&[], "bare");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    for name in [
        "fig05",
        "fig06",
        "fig07",
        "fig08",
        "fig10",
        "fig11",
        "fig12",
        "tab_crypto",
        "tab_deployment",
        "tab_power",
        "chaos",
        "simcheck",
        "ltl_ab",
        "haas_elastic",
    ] {
        let synopsis = format!("  catapult {name}");
        assert!(
            stderr
                .lines()
                .any(|l| l == synopsis || l.starts_with(&format!("{synopsis} "))),
            "{name} missing from:\n{stderr}"
        );
    }
}
