//! Exit codes of `simcheck --replay`: 0 when the recorded violation
//! reproduces, 1 when it does not, 2 — with one line on stderr and no
//! panic — for input it cannot use.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `simcheck --replay path`; returns the exit code, stdout, stderr.
fn replay(path: &Path) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_simcheck"))
        .arg("--replay")
        .arg(path)
        .output()
        .expect("simcheck runs");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
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
