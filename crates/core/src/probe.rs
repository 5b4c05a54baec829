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
    for i in 0..count {
        cluster.engine_mut().schedule(
            start + gap * i,
            shell_id,
            Msg::LtlSend(LtlSend {
                conn,
                vc: 0,
                payload: payload.clone(),
            }),
        );
    }
}
