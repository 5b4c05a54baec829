//! Determinism regression tests for the sharded (parallel-in-run) engine.
//!
//! A sharded cluster run is a pure function of its seed: the shard count
//! (and the worker thread count under it) is a pure performance knob. The
//! telemetry fingerprint — every counter, gauge, and histogram of every
//! switch and shell — must be byte-identical for shard counts 1, 2, 4,
//! and 8, along with the event total and the final clock.

use bytes::Bytes;
use catapult::prelude::*;
use shell::{LtlDeliver, LtlSend};

mod common;

/// Replies to every LTL delivery with another send, `remaining` times,
/// so traffic keeps crossing the fabric (and shard cuts) for a while.
#[derive(Debug)]
struct Volley {
    conn: shell::ltl::SendConnId,
    shell: ComponentId,
    remaining: u32,
}

impl Component<Msg> for Volley {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<LtlDeliver>().is_ok() && self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(
                self.shell,
                Msg::LtlSend(LtlSend {
                    conn: self.conn,
                    vc: 0,
                    payload: Bytes::from_static(b"parallel-determinism"),
                }),
            );
        }
    }
}

/// Like [`Volley`], but waits `delay` before replying — a paced RPC
/// handler whose declared send floor lets adaptive windows stretch.
#[derive(Debug)]
struct PacedVolley {
    conn: shell::ltl::SendConnId,
    shell: ComponentId,
    remaining: u32,
    delay: SimDuration,
}

impl Component<Msg> for PacedVolley {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<LtlDeliver>().is_ok() && self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_after(
                self.delay,
                self.shell,
                Msg::LtlSend(LtlSend {
                    conn: self.conn,
                    vc: 0,
                    payload: Bytes::from_static(b"paced-volley"),
                }),
            );
        }
    }
}

/// Builds a 2-pod cluster with volleying LTL pairs that cross racks and
/// pods, runs it on `shards` shards, and returns its full fingerprint.
fn sharded_fingerprint(shards: u32) -> String {
    sharded_fingerprint_with_policy(shards, None)
}

fn sharded_fingerprint_with_policy(shards: u32, policy: Option<WindowPolicy>) -> String {
    let mut cluster = ClusterBuilder::paper(2024, 2).build();
    // Pairs chosen to exercise every partition cut: same rack, cross-rack
    // (TOR↔agg), and cross-pod (agg↔spine).
    let pairs = [
        (NodeAddr::new(0, 0, 1), NodeAddr::new(0, 0, 2)),
        (NodeAddr::new(0, 1, 3), NodeAddr::new(0, 7, 4)),
        (NodeAddr::new(0, 2, 5), NodeAddr::new(1, 5, 6)),
        (NodeAddr::new(1, 0, 7), NodeAddr::new(0, 9, 8)),
        (NodeAddr::new(1, 3, 9), NodeAddr::new(1, 8, 10)),
    ];
    let mut kickoffs = Vec::new();
    for &(a, b) in &pairs {
        let a_id = cluster.add_shell(a);
        let b_id = cluster.add_shell(b);
        let (a_send, b_send, _, _) = cluster.connect_pair(a, b);
        let a_drv = cluster.add_component_at(
            a,
            Volley {
                conn: a_send,
                shell: a_id,
                remaining: 30,
            },
        );
        let b_drv = cluster.add_component_at(
            b,
            Volley {
                conn: b_send,
                shell: b_id,
                remaining: 30,
            },
        );
        cluster.set_consumer(a, a_drv);
        cluster.set_consumer(b, b_drv);
        kickoffs.push((a_id, a_send));
    }
    for (shell, conn) in kickoffs {
        cluster.engine_mut().schedule(
            SimTime::ZERO,
            shell,
            Msg::LtlSend(LtlSend {
                conn,
                vc: 0,
                payload: Bytes::from_static(b"kickoff"),
            }),
        );
    }
    let got = cluster.shard(shards);
    assert_eq!(got, shards, "2 pods x 40 racks should never clamp <= 8");
    if let Some(policy) = policy {
        cluster.set_window_policy(policy);
    }
    let events = cluster.run_for(SimDuration::from_millis(2));
    assert!(events > 0, "volleys produced no events");
    format!(
        "events {events}\nnow {}\n{}",
        cluster.now().as_nanos(),
        cluster.metrics_snapshot().to_json_pretty()
    )
}

/// A bursty variant: paced drivers (2 us declared reply floor) whose
/// idle troughs let adaptive windows stretch and fast-forward. Returns
/// the fingerprint, the summed per-shard sync counters and the number of
/// barrier rounds the run took.
fn bursty_fingerprint(shards: u32, policy: WindowPolicy) -> (String, u64, u64, u64) {
    let mut cluster = ClusterBuilder::paper(777, 2).build();
    let delay = SimDuration::from_micros(2);
    let pairs = [
        (NodeAddr::new(0, 0, 1), NodeAddr::new(0, 6, 2)),
        (NodeAddr::new(0, 3, 3), NodeAddr::new(1, 4, 4)),
        (NodeAddr::new(1, 1, 5), NodeAddr::new(1, 9, 6)),
    ];
    let mut kickoffs = Vec::new();
    for &(a, b) in &pairs {
        let a_id = cluster.add_shell(a);
        let b_id = cluster.add_shell(b);
        let (a_send, b_send, _, _) = cluster.connect_pair(a, b);
        let a_drv = cluster.add_paced_component_at(
            a,
            PacedVolley {
                conn: a_send,
                shell: a_id,
                remaining: 40,
                delay,
            },
            delay,
        );
        let b_drv = cluster.add_paced_component_at(
            b,
            PacedVolley {
                conn: b_send,
                shell: b_id,
                remaining: 40,
                delay,
            },
            delay,
        );
        cluster.set_consumer(a, a_drv);
        cluster.set_consumer(b, b_drv);
        kickoffs.push((a_id, a_send));
    }
    for (shell, conn) in kickoffs {
        cluster.engine_mut().schedule(
            SimTime::ZERO,
            shell,
            Msg::LtlSend(LtlSend {
                conn,
                vc: 0,
                payload: Bytes::from_static(b"kickoff"),
            }),
        );
    }
    cluster.shard(shards);
    cluster.set_window_policy(policy);
    let events = cluster.run_for(SimDuration::from_millis(2));
    let stats = cluster.sync_stats();
    let extensions: u64 = stats.iter().map(|s| s.window_extensions).sum();
    let fast_forwards: u64 = stats.iter().map(|s| s.windows_fast_forwarded).sum();
    let fp = format!(
        "events {events}\nnow {}\n{}",
        cluster.now().as_nanos(),
        cluster.metrics_snapshot().to_json_pretty()
    );
    (fp, extensions, fast_forwards, cluster.sync_rounds())
}

#[test]
fn fingerprint_is_byte_identical_across_shard_counts() {
    let baseline = sharded_fingerprint(1);
    for shards in [2, 4, 8] {
        let other = sharded_fingerprint(shards);
        common::assert_identical(&format!("1 shard vs {shards} shards"), &baseline, &other);
    }
}

#[test]
fn sharded_rerun_with_same_seed_is_byte_identical() {
    let first = sharded_fingerprint(4);
    let second = sharded_fingerprint(4);
    common::assert_identical("4-shard rerun", &first, &second);
}

/// The window policy is a pure performance knob: fixed and adaptive
/// windows produce byte-identical fingerprints at every shard count.
#[test]
fn fingerprint_is_byte_identical_across_window_policies() {
    let baseline = sharded_fingerprint_with_policy(1, Some(WindowPolicy::fixed()));
    for shards in [1, 2, 4, 8] {
        let fixed = sharded_fingerprint_with_policy(shards, Some(WindowPolicy::fixed()));
        let adaptive = sharded_fingerprint_with_policy(shards, Some(WindowPolicy::adaptive()));
        common::assert_identical(
            &format!("fixed vs adaptive at {shards} shards"),
            &fixed,
            &adaptive,
        );
        common::assert_identical(
            &format!("baseline vs fixed at {shards} shards"),
            &baseline,
            &fixed,
        );
    }
}

/// On the paced bursty workload the adaptive machinery actually engages
/// (windows stretch and fast-forward) without changing a byte of the
/// fingerprint at any shard count.
#[test]
fn bursty_adaptive_windows_extend_without_changing_fingerprints() {
    let (baseline, _, _, _) = bursty_fingerprint(1, WindowPolicy::fixed());
    for shards in [2, 4, 8] {
        let (fixed_fp, fixed_ext, _, fixed_rounds) =
            bursty_fingerprint(shards, WindowPolicy::fixed());
        let (adaptive_fp, adaptive_ext, adaptive_ff, adaptive_rounds) =
            bursty_fingerprint(shards, WindowPolicy::adaptive());
        common::assert_identical(
            &format!("bursty fixed vs adaptive at {shards} shards"),
            &fixed_fp,
            &adaptive_fp,
        );
        common::assert_identical(
            &format!("bursty baseline vs adaptive at {shards} shards"),
            &baseline,
            &adaptive_fp,
        );
        assert_eq!(fixed_ext, 0, "fixed windows must never extend");
        assert!(
            adaptive_ext > 0,
            "paced bursty workload at {shards} shards never stretched a window"
        );
        assert!(
            adaptive_ff > 0,
            "paced bursty workload at {shards} shards never fast-forwarded"
        );
        assert!(
            adaptive_rounds < fixed_rounds,
            "adaptive windows at {shards} shards took {adaptive_rounds} rounds, fixed {fixed_rounds}"
        );
    }
}
