//! The bridge tap: how roles inject, inspect, and alter network traffic.
//!
//! The shell's NIC<->TOR bridge exposes a tap through which a role sees
//! every packet in both directions. The crypto role (Section IV) uses it to
//! encrypt and decrypt flows at line rate; the default [`PassthroughTap`]
//! is the golden image's bypass logic. The [`Role`] stage holds the tap
//! with the rest of the role's state in the shell.

use std::any::Any;

use dcnet::{LtlDeliver, Msg, Packet, PortId};
use dcsim::{ComponentId, Context, SimDuration, SimTime};
use telemetry::TrackTracer;

use crate::ltl::LtlEvent;
use crate::shell::{LtlConnFailed, ShellStats, PORT_NIC};

/// What the tap wants done with a packet.
#[derive(Debug)]
pub enum TapAction {
    /// Forward the (possibly rewritten) packet after `delay` of role
    /// processing time.
    Forward {
        /// Packet to forward.
        pkt: Packet,
        /// Extra processing latency introduced by the role.
        delay: SimDuration,
    },
    /// Drop the packet (e.g. deep packet inspection verdict).
    Drop,
}

impl TapAction {
    /// Forward unchanged with zero added latency.
    pub fn pass(pkt: Packet) -> TapAction {
        TapAction::Forward {
            pkt,
            delay: SimDuration::ZERO,
        }
    }
}

/// A role's view of bridged traffic. `outbound` sees host->TOR packets,
/// `inbound` sees TOR->host packets. Implementations must be deterministic
/// for reproducible runs.
pub trait NetworkTap: Any + Send {
    /// Processes a packet leaving the host toward the datacenter.
    fn outbound(&mut self, pkt: Packet, now: SimTime) -> TapAction;

    /// Processes a packet arriving from the datacenter toward the host.
    fn inbound(&mut self, pkt: Packet, now: SimTime) -> TapAction;
}

/// The bypass logic of the golden image: forwards everything untouched.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassthroughTap;

impl NetworkTap for PassthroughTap {
    fn outbound(&mut self, pkt: Packet, _now: SimTime) -> TapAction {
        TapAction::pass(pkt)
    }

    fn inbound(&mut self, pkt: Packet, _now: SimTime) -> TapAction {
        TapAction::pass(pkt)
    }
}

/// The role as the shell sees it, a stage: the tap it puts on the
/// bridge, the consumer of its LTL upcalls and whether it is wedged.
/// Partial reconfiguration swaps the role while the bridge and LTL keep
/// running, so the shell holds none of this state itself.
pub(crate) struct Role {
    pub(crate) tap: Box<dyn NetworkTap>,
    pub(crate) consumer: Option<ComponentId>,
    /// While a hang lasts, the instant the furthest-out one ends.
    pub(crate) hang_until: Option<SimTime>,
}

impl Role {
    /// A role with the passthrough tap, no consumer, not hung.
    pub(crate) fn new() -> Role {
        Role {
            tap: Box::new(PassthroughTap),
            consumer: None,
            hang_until: None,
        }
    }

    /// A host frame crossing the bridge from `ingress`: through the tap,
    /// outbound from the NIC and inbound otherwise, unless a partial
    /// reconfiguration has the tap `bypassed`.
    pub(crate) fn bridge(
        &mut self,
        pkt: Packet,
        ingress: PortId,
        now: SimTime,
        bypassed: bool,
    ) -> TapAction {
        match ingress {
            _ if bypassed => TapAction::pass(pkt),
            PORT_NIC => self.tap.outbound(pkt, now),
            _ => self.tap.inbound(pkt, now),
        }
    }

    /// Forwards one engine upcall to the consumer. A delivery is traced
    /// first, and lost while the role is hung (the shell has already
    /// ACKed it).
    pub(crate) fn deliver(
        &self,
        ctx: &mut Context<'_, Msg>,
        ev: LtlEvent,
        tracer: &Option<TrackTracer>,
        stats: &mut ShellStats,
    ) {
        match ev {
            LtlEvent::Deliver {
                conn,
                src,
                vc,
                payload,
            } => {
                if let Some(tracer) = tracer {
                    tracer.instant(ctx.now(), "ltl_deliver", &[("bytes", payload.len() as u64)]);
                }
                if self.hang_until.is_some() {
                    stats.hang_drops += 1;
                    return;
                }
                if let Some(consumer) = self.consumer {
                    let deliver = LtlDeliver {
                        conn,
                        src,
                        vc,
                        payload,
                    };
                    ctx.send(consumer, Msg::LtlDeliver(deliver));
                }
            }
            LtlEvent::ConnectionFailed { conn, remote } => {
                if let Some(consumer) = self.consumer {
                    ctx.send(consumer, Msg::custom(LtlConnFailed { conn, remote }));
                }
            }
        }
    }

    /// Wedges the role until `until`. Overlapping hangs extend, never
    /// shorten.
    pub(crate) fn hang(&mut self, until: SimTime) {
        self.hang_until = self.hang_until.max(Some(until));
    }

    /// A recovery timer at `now`: only the one for the furthest-out hang
    /// clears it.
    pub(crate) fn recover(&mut self, now: SimTime) {
        if self.hang_until.is_some_and(|t| now >= t) {
            self.hang_until = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dcnet::{NodeAddr, TrafficClass};

    #[test]
    fn passthrough_does_not_touch_packets() {
        let mut tap = PassthroughTap;
        let pkt = Packet::new(
            NodeAddr::new(0, 0, 0),
            NodeAddr::new(0, 0, 1),
            1,
            2,
            TrafficClass::BEST_EFFORT,
            Bytes::from_static(b"payload"),
        );
        match tap.outbound(pkt.clone(), SimTime::ZERO) {
            TapAction::Forward { pkt: out, delay } => {
                assert_eq!(out.payload, pkt.payload);
                assert_eq!(delay, SimDuration::ZERO);
            }
            TapAction::Drop => panic!("passthrough must forward"),
        }
        match tap.inbound(pkt.clone(), SimTime::ZERO) {
            TapAction::Forward { pkt: out, .. } => assert_eq!(out.payload, pkt.payload),
            TapAction::Drop => panic!("passthrough must forward"),
        }
    }
}
