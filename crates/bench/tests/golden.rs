//! Golden outputs: what `catapult ltl_ab`, `simcheck`, `chaos`,
//! `haas_elastic` and the fleet-scale `fig10` write for a fixed seed, and the
//! metrics registry's JSON dump of a small cluster, compared with the
//! files under `tests/golden/`. Every output here is a pure function of
//! its seed, so a refactor of the LTL engine, its pump, its oracles, the
//! flow model, the fleet generator, the elastic scheduler or the metrics
//! registry must leave them unchanged.
//!
//! On a mismatch the actual output is written under
//! `target/tmp/golden/actual/` and the differing lines are printed.
//! Re-baselining a deliberate change means copying that file over the
//! golden one, so the diff shows what moved.

use std::path::{Path, PathBuf};
use std::process::Command;

use catapult::prelude::*;
use dcnet::Msg;
use shell::{ShellCmd, TenantCaps, TenantId};

/// Runs `catapult args` with its working directory under the target
/// directory (experiments write `results/` relative to it); returns the
/// directory and stdout. Panics unless it exits 0.
fn run(args: &[&str], dir_name: &str) -> (PathBuf, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("golden")
        .join(dir_name);
    std::fs::create_dir_all(&dir).expect("scratch dir is writable");
    let out = Command::new(env!("CARGO_BIN_EXE_catapult"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("catapult runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "catapult {args:?} exited {:?}\n{stdout}{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, stdout)
}

/// Compares `actual` with `tests/golden/<name>` byte for byte.
fn assert_golden(name: &str, actual: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&golden_path).expect("golden file is readable");
    if golden == actual {
        return;
    }
    let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden/actual");
    std::fs::create_dir_all(&actual_dir).expect("scratch dir is writable");
    let actual_path = actual_dir.join(name);
    std::fs::write(&actual_path, actual).expect("actual output is writable");
    let (mut g, mut a) = (golden.lines(), actual.lines());
    let mut diff = String::new();
    for line in 1.. {
        match (g.next(), a.next()) {
            (None, None) => break,
            (gl, al) if gl == al => {}
            (gl, al) => {
                diff.push_str(&format!(
                    "line {line}:\n- {}\n+ {}\n",
                    gl.unwrap_or(""),
                    al.unwrap_or("")
                ));
            }
        }
    }
    panic!(
        "{name} differs from {}; actual written to {}\n{diff}",
        golden_path.display(),
        actual_path.display()
    );
}

#[test]
fn ltl_ab_report_is_golden() {
    let (dir, _) = run(
        &["ltl_ab", "--quick", "--seed", "7", "--check-win"],
        "ltl_ab",
    );
    let report =
        std::fs::read_to_string(dir.join("results/ltl_ab.json")).expect("ltl_ab wrote its report");
    assert_golden("ltl_ab.json", &report);
}

#[test]
fn simcheck_sweep_totals_are_golden() {
    let (_, stdout) = run(&["simcheck", "--quick", "--seeds", "16"], "simcheck_sweep");
    let totals = stdout.lines().last().expect("simcheck prints its totals");
    assert_golden("simcheck_quick_16.txt", &format!("{totals}\n"));
}

#[test]
fn planted_bugs_are_caught_and_shrunk_as_golden() {
    let (_, stdout) = run(&["simcheck", "--validate-oracle"], "simcheck_validate");
    let lines: String = stdout
        .lines()
        .filter(|l| l.starts_with("caught on seed") || l.starts_with("shrunk "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_golden("simcheck_validate_oracle.txt", &lines);
}

/// The quarter-million-host fleet run: a 260-pod lazy fabric with a
/// two-pod packet island, the default two-million-user generator and the
/// flow model. The report pins the island's latencies, ECN marks, the
/// background ledger, the reachable-host and materialized-pod counts and
/// the events dispatched; the run fails on its own if the allocator
/// high-water mark passes 64 MiB (lazy topology or the flow model gone
/// O(fleet)).
#[test]
fn fig10_fleet_report_is_golden() {
    let (dir, _) = run(
        &["fig10", "--full-scale", "--rss-limit-mb", "64"],
        "fig10_fleet",
    );
    let report = std::fs::read_to_string(dir.join("results/fig10_fleet.json"))
        .expect("fig10 wrote its fleet report");
    assert_golden("fig10_fleet.json", &report);
}

/// The elastic scheduler's oversubscription sweep on six boards: every
/// mix × load × policy row's utilization, per-class p99 waits, counters
/// and decision fingerprint, behind the `--check-win` gate. The
/// `--full-scale --quick` dataset (the 24-5,760-board ladder and the
/// 5,760-board sweep) is `tests/golden/haas_elastic_full_quick.json`;
/// it is too slow for a debug build and CI diffs a release run against it.
#[test]
fn haas_elastic_report_is_golden() {
    let (dir, _) = run(&["haas_elastic", "--check-win"], "haas_elastic");
    let report = std::fs::read_to_string(dir.join("results/haas_elastic.json"))
        .expect("haas_elastic wrote its report");
    assert_golden("haas_elastic.json", &report);
}

/// The quick fault-injection run: random faults on the ranking and DNN
/// services, the failure monitor's detection and recovery, and the
/// transport and fabric sections the report reads off one registry
/// snapshot.
#[test]
fn chaos_report_is_golden() {
    let (dir, _) = run(&["chaos", "--quick", "--seed", "42"], "chaos");
    let report = std::fs::read_to_string(dir.join("results/chaos_report.json"))
        .expect("chaos wrote its report");
    assert_golden("chaos_report.json", &report);
}

/// The registry dump of a small two-pod cluster: cross-pod LTL probes
/// under 5 % injected egress loss, on a send connection bound to a tenant
/// whose credit cap refuses some of them. Counters, gauges, a filled and
/// an empty RTT histogram and the shell's `tenants` child all appear, so
/// the dump pins every path, the order of paths that share a prefix
/// (`tenant_cap_drops` before `tenants/…`) and the number formatting.
#[test]
fn two_pod_metrics_dump_is_golden() {
    let shape = FabricShape {
        hosts_per_tor: 4,
        tors_per_pod: 2,
        pods: 2,
        spines: 2,
    };
    let mut cluster = ClusterBuilder::paper(1, 2)
        .fabric_config(&calib::fabric_config(shape))
        .build();
    let (a, b) = (NodeAddr::new(0, 0, 1), NodeAddr::new(1, 1, 2));
    let a_id = cluster.add_shell(a);
    cluster.add_shell(b);
    let (a_send, _, _, _) = cluster.connect_pair(a, b);
    let tenant = TenantId(7);
    let caps = TenantCaps {
        er_mbps: 10_000,
        ltl_credits: 4,
    };
    for cmd in [
        ShellCmd::SetLtlLossRate(0.05),
        ShellCmd::SetTenantCaps {
            tenant,
            caps: Some(caps),
        },
        ShellCmd::BindTenant {
            conn: a_send,
            tenant: Some(tenant),
        },
    ] {
        cluster
            .engine_mut()
            .schedule(SimTime::ZERO, a_id, Msg::custom(cmd));
    }
    // Five probes per 10 us cap window against a budget of four.
    schedule_probes(
        &mut cluster,
        a,
        a_send,
        SimTime::from_micros(1),
        SimDuration::from_micros(2),
        60,
        64,
    );
    cluster.run_to_idle();
    let dump = cluster.metrics_snapshot().to_json();
    assert_golden("metrics_two_pod.json", &format!("{dump}\n"));
}
