//! Probe traffic helpers for latency experiments.

use bytes::Bytes;
use dcnet::{Msg, NodeAddr};
use dcsim::{SimDuration, SimTime};
use shell::ltl::SendConnId;
use shell::LtlSend;

use crate::cluster::Cluster;

/// Schedules `count` LTL probe messages from the shell at `from` on
/// `conn`, starting at `start` and spaced `gap` apart. RTT samples
/// accumulate in the sending shell's LTL engine.
///
/// The probes are one [`dcsim::Engine::schedule_series`] stream: one
/// queue node until they come due, with the tie-break keys and events of
/// the `count` separate messages it stands for.
pub fn schedule_probes(
    cluster: &mut Cluster,
    from: NodeAddr,
    conn: SendConnId,
    start: SimTime,
    gap: SimDuration,
    count: u64,
    payload_bytes: usize,
) {
    let shell_id = cluster
        .shell_id(from)
        .expect("probe source must be populated");
    let payload = Bytes::from(vec![0xA5u8; payload_bytes.max(1)]);
    cluster
        .engine_mut()
        .schedule_series(start, gap, count, shell_id, move || {
            Msg::LtlSend(LtlSend {
                conn,
                vc: 0,
                payload: payload.clone(),
            })
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterBuilder;

    /// Probe pairs: two into one receiver under a TOR, whose probes
    /// leave at the same instants and queue for the same port in an
    /// order the tie-break keys decide, and one across the spine.
    fn pairs() -> [(NodeAddr, NodeAddr); 3] {
        let shared = NodeAddr::new(0, 0, 2);
        [
            (NodeAddr::new(0, 0, 1), shared),
            (NodeAddr::new(0, 0, 3), shared),
            (NodeAddr::new(0, 1, 3), NodeAddr::new(1, 3, 7)),
        ]
    }
    const PROBES: u64 = 40;

    /// What a run shows: the metrics dump, each sender's RTT samples in
    /// recording order, the events dispatched, and the pending count
    /// before the run, halfway through and at its end.
    type Run = (String, Vec<Vec<u64>>, u64, [usize; 3]);

    /// The pairs probing from one start, scheduled through
    /// [`schedule_probes`] or as the loop of [`dcsim::Engine::schedule`]
    /// calls it stands for.
    fn run(series: bool, salt: u64, gap: SimDuration) -> Run {
        let mut cluster = ClusterBuilder::paper(0x5E71E5, 2).build();
        cluster.engine_mut().set_tie_break_salt(salt);
        for (a, b) in pairs() {
            for addr in [a, b] {
                if cluster.shell_id(addr).is_none() {
                    cluster.add_shell(addr);
                }
            }
            let (send, _, _, _) = cluster.connect_pair(a, b);
            let start = SimTime::from_micros(1);
            if series {
                schedule_probes(&mut cluster, a, send, start, gap, PROBES, 64);
            } else {
                let shell = cluster.shell_id(a).expect("populated");
                let payload = Bytes::from(vec![0xA5u8; 64]);
                for k in 0..PROBES {
                    let probe = LtlSend {
                        conn: send,
                        vc: 0,
                        payload: payload.clone(),
                    };
                    let at = start + gap * k;
                    cluster
                        .engine_mut()
                        .schedule(at, shell, Msg::LtlSend(probe));
                }
            }
        }
        let before = cluster.engine().pending_events();
        cluster.run_until(SimTime::ZERO + gap * (PROBES / 2));
        let halfway = cluster.engine().pending_events();
        let events = cluster.run_to_idle();
        let after = cluster.engine().pending_events();
        let snap = cluster.metrics_snapshot();
        let rtts = pairs()
            .iter()
            .map(|(a, _)| {
                let h = snap.histogram(&format!("shell/{a}/ltl/rtt_ns"));
                h.expect("sender records RTTs").samples().to_vec()
            })
            .collect();
        (snap.to_json(), rtts, events, [before, halfway, after])
    }

    fn assert_series_matches_loop(salt: u64, gap: SimDuration) {
        let eager = run(false, salt, gap);
        let series = run(true, salt, gap);
        assert!(eager.1.iter().all(|s| !s.is_empty()), "every pair measured");
        assert_eq!(series.1, eager.1, "RTT samples, salt {salt:#x}, gap {gap}");
        assert_eq!(series.2, eager.2, "events, salt {salt:#x}, gap {gap}");
        assert_eq!(series.3, eager.3, "pending, salt {salt:#x}, gap {gap}");
        assert!(
            series.0 == eager.0,
            "metrics differ, salt {salt:#x}, gap {gap}"
        );
    }

    #[test]
    fn probes_as_a_series_match_a_loop_of_schedules() {
        assert_series_matches_loop(0, SimDuration::from_micros(5));
    }

    #[test]
    fn probes_as_a_series_match_a_loop_of_schedules_under_a_salt() {
        assert_series_matches_loop(0x9E37_79B9_7F4A_7C15, SimDuration::from_micros(5));
    }

    /// A zero gap puts every probe of a pair at one instant, where
    /// `schedule_series` pushes them one by one.
    #[test]
    fn probes_at_one_instant_match_a_loop_of_schedules() {
        for salt in [0, 0x9E37_79B9_7F4A_7C15] {
            assert_series_matches_loop(salt, SimDuration::ZERO);
        }
    }
}
