//! The simulation-wide message type.
//!
//! Every engine in this workspace runs over [`Msg`]: network-plane events,
//! the per-frame hand-offs into and inside a shell's pipelines and the
//! shell's per-message send command and delivery upcall are first-class
//! variants, while host- and
//! application-level crates attach their own payloads through
//! [`Msg::custom`]. Components take the payloads they expect with
//! [`Msg::downcast`]; anything else is a wiring bug and surfaces loudly in
//! tests.
//!
//! # Typed-message policy
//!
//! Anything on the steady-state event hot path — sent once per frame, per
//! hop, per delivered message or per background-traffic tick — must be a
//! first-class variant: `Box<dyn Any>` costs a heap allocation plus a
//! downcast per event, which dominates once the scheduler itself is
//! cheap. The variants are [`Msg::Net`], [`Msg::Egress`], [`Msg::LtlRx`],
//! [`Msg::LtlSend`], [`Msg::LtlDeliver`], [`Msg::FlowSim`] and
//! [`Msg::Switch`].
//! [`Msg::Custom`] is reserved for *cold* traffic: management RPCs, test
//! scaffolding, and payloads whose type lives above this crate.
//!
//! Receive with [`Msg::downcast`], never by opening [`Msg::Custom`] by
//! hand: `downcast::<SwitchCmd>()` serves the typed variant and a boxed
//! payload alike, while a hand-written `let Msg::Custom(any) = msg` never
//! sees the variant and says nothing about it.

use std::any::Any;

use bytes::Bytes;

use crate::addr::NodeAddr;
use crate::flowsim::FlowSimCmd;
use crate::packet::{Packet, TrafficClass};
use crate::switch::SwitchCmd;

/// Index of a port on a switch or endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortId(pub u16);

impl PortId {
    /// The port index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for PortId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// Network-plane events exchanged between switches and endpoints.
#[derive(Debug)]
pub enum NetEvent {
    /// A frame arriving on `ingress` of the receiving component.
    Packet {
        /// The frame.
        pkt: Packet,
        /// Which local port the frame arrived on.
        ingress: PortId,
    },
    /// A priority flow control (IEEE 802.1Qbb) pause or resume arriving on
    /// `ingress`: the sender asks us to stop/restart transmitting `class`
    /// toward it.
    Pfc {
        /// Affected traffic class.
        class: TrafficClass,
        /// Which local port the control frame arrived on.
        ingress: PortId,
        /// `true` = XOFF (pause), `false` = XON (resume).
        pause: bool,
    },
}

/// A command to a shell: send `payload` as one LTL message
/// ([`Msg::LtlSend`]).
#[derive(Debug, Clone)]
pub struct LtlSend {
    /// Send connection the message leaves on (an index into the sending
    /// shell's connection table).
    pub conn: u16,
    /// Elastic Router virtual channel for the receiver.
    pub vc: u8,
    /// Message payload.
    pub payload: Bytes,
}

/// A complete LTL message, handed by a shell to its registered consumer
/// ([`Msg::LtlDeliver`]).
#[derive(Debug, Clone)]
pub struct LtlDeliver {
    /// Receive connection the message arrived on (an index into the
    /// receiving shell's connection table).
    pub conn: u16,
    /// Sending FPGA.
    pub src: NodeAddr,
    /// Virtual channel.
    pub vc: u8,
    /// Reassembled payload.
    pub payload: Bytes,
}

/// The global engine message type.
pub enum Msg {
    /// Network-plane traffic.
    Net(NetEvent),
    /// Hot-path pipeline hand-off inside a shell: a bridged host frame,
    /// delayed by the NIC<->TOR bridge hop (and its tap), that must be
    /// transmitted out of `port` when the self-scheduled delay elapses.
    /// The shell sends it to itself once per bridged frame, so it is a
    /// first-class variant instead of a boxed payload. LTL frames never
    /// take it: the shell's LTL transmit stage puts them on the wire in
    /// the call that emits them.
    Egress {
        /// Local egress port the frame leaves through.
        port: PortId,
        /// The frame to transmit.
        pkt: Packet,
    },
    /// An LTL frame entering a shell's LTL receive stage, the end of its
    /// receive pipeline (MAC, depacketizer). The frame's last hop sends
    /// it — the TOR port the shell is cabled to
    /// ([`crate::Switch::connect_shell`]), or the peer shell in a
    /// back-to-back rig — at wire arrival plus the receive latency the
    /// shell declared when cabled. Sent once per received LTL frame.
    LtlRx(Packet),
    /// A message for a shell to send over LTL, from the shell's consumer
    /// (a role, a host driver). Sent once per message, so it is a
    /// first-class variant; the shell takes it with
    /// [`Msg::downcast::<LtlSend>`](Msg::downcast).
    LtlSend(LtlSend),
    /// A reassembled LTL message on its way from a shell (the only
    /// producer) to the shell's consumer. Sent once per message, so it is
    /// a first-class variant; consumers take it with
    /// [`Msg::downcast::<LtlDeliver>`](Msg::downcast).
    LtlDeliver(LtlDeliver),
    /// A command to the flow model. The fleet workload generator sends one
    /// per tick carrying that tick's background-traffic batches, so it is
    /// a first-class variant; [`crate::FlowSim`] takes it with
    /// [`Msg::downcast::<FlowSimCmd>`](Msg::downcast).
    FlowSim(FlowSimCmd),
    /// An operator command to a switch. The flow model sends one per spine
    /// per pressure change, so it is a first-class variant; fault
    /// injection uses the same one. [`crate::Switch`] takes it with
    /// [`Msg::downcast::<SwitchCmd>`](Msg::downcast).
    Switch(SwitchCmd),
    /// Crate-specific payloads (PCIe DMA transactions, application requests,
    /// management RPCs); receivers downcast to the types they expect.
    /// Cold path only — see the module-level typed-message policy.
    Custom(Box<dyn Any + Send>),
}

impl Msg {
    /// Wraps an arbitrary payload.
    pub fn custom<T: Any + Send>(value: T) -> Msg {
        Msg::Custom(Box::new(value))
    }

    /// Convenience constructor for a packet delivery.
    pub fn packet(pkt: Packet, ingress: PortId) -> Msg {
        Msg::Net(NetEvent::Packet { pkt, ingress })
    }

    /// Attempts to take the message as a payload of type `T`: a
    /// [`Msg::Custom`] box holding a `T`, or a typed payload variant
    /// ([`Msg::LtlSend`], [`Msg::LtlDeliver`], [`Msg::FlowSim`],
    /// [`Msg::Switch`]) when `T` is the type it carries.
    ///
    /// # Errors
    ///
    /// Returns the original message, unchanged, if it carries no `T`.
    pub fn downcast<T: Any>(self) -> Result<T, Msg> {
        match self {
            Msg::Custom(b) => match b.downcast::<T>() {
                Ok(v) => Ok(*v),
                Err(b) => Err(Msg::Custom(b)),
            },
            Msg::LtlSend(s) => take_as(s).map_err(Msg::LtlSend),
            Msg::LtlDeliver(d) => take_as(d).map_err(Msg::LtlDeliver),
            Msg::FlowSim(cmd) => take_as(cmd).map_err(Msg::FlowSim),
            Msg::Switch(cmd) => take_as(cmd).map_err(Msg::Switch),
            other => Err(other),
        }
    }
}

/// Moves `payload` out as a `T` iff `T` is `P`, through `dyn Any` because
/// safe code cannot name that equality; the test is a constant once both
/// types are known.
fn take_as<P: Any, T: Any>(payload: P) -> Result<T, P> {
    let mut slot = Some(payload);
    match (&mut slot as &mut dyn Any).downcast_mut::<Option<T>>() {
        Some(hit) => Ok(hit.take().expect("filled above")),
        None => Err(slot.expect("filled above")),
    }
}

impl core::fmt::Debug for Msg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Msg::Net(ev) => f.debug_tuple("Net").field(ev).finish(),
            Msg::Egress { port, pkt } => f
                .debug_struct("Egress")
                .field("port", port)
                .field("pkt", pkt)
                .finish(),
            Msg::LtlRx(pkt) => f.debug_tuple("LtlRx").field(pkt).finish(),
            Msg::LtlSend(s) => f.debug_tuple("LtlSend").field(s).finish(),
            Msg::LtlDeliver(d) => f.debug_tuple("LtlDeliver").field(d).finish(),
            Msg::FlowSim(cmd) => f.debug_tuple("FlowSim").field(cmd).finish(),
            Msg::Switch(cmd) => f.debug_tuple("Switch").field(cmd).finish(),
            Msg::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeAddr;
    use bytes::Bytes;

    #[test]
    fn downcast_right_type() {
        let m = Msg::custom(42u32);
        assert_eq!(m.downcast::<u32>().unwrap(), 42);
    }

    #[test]
    fn downcast_wrong_type_returns_original() {
        let m = Msg::custom(42u32);
        let back = m.downcast::<String>().unwrap_err();
        assert_eq!(back.downcast::<u32>().unwrap(), 42);
    }

    #[test]
    fn downcast_net_event_fails() {
        let pkt = Packet::new(
            NodeAddr::new(0, 0, 0),
            NodeAddr::new(0, 0, 1),
            1,
            2,
            TrafficClass::BEST_EFFORT,
            Bytes::new(),
        );
        let m = Msg::packet(pkt, PortId(3));
        assert!(m.downcast::<u32>().is_err());
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Msg::custom(1u8)), "Custom(..)");
    }

    fn deliver() -> LtlDeliver {
        LtlDeliver {
            conn: 3,
            src: NodeAddr::new(0, 1, 2),
            vc: 1,
            payload: Bytes::from_static(b"reassembled"),
        }
    }

    fn assert_is_the_delivery(d: LtlDeliver) {
        assert_eq!((d.conn, d.src, d.vc), (3, NodeAddr::new(0, 1, 2), 1));
        assert_eq!(d.payload, b"reassembled"[..]);
    }

    #[test]
    fn ltl_deliver_variant_downcasts_to_its_payload() {
        assert_is_the_delivery(Msg::LtlDeliver(deliver()).downcast().unwrap());
    }

    #[test]
    fn wrong_type_downcast_returns_the_ltl_deliver_variant_intact() {
        let back = Msg::LtlDeliver(deliver()).downcast::<u32>().unwrap_err();
        assert!(matches!(back, Msg::LtlDeliver(_)), "got {back:?}");
        // Not consumed by the miss: a right-typed downcast still succeeds.
        assert_is_the_delivery(back.downcast().unwrap());
    }

    #[test]
    fn boxed_ltl_deliver_still_downcasts() {
        assert_is_the_delivery(Msg::custom(deliver()).downcast().unwrap());
    }

    fn send() -> LtlSend {
        LtlSend {
            conn: 5,
            vc: 1,
            payload: Bytes::from_static(b"request"),
        }
    }

    fn assert_is_the_send(s: LtlSend) {
        assert_eq!((s.conn, s.vc), (5, 1));
        assert_eq!(s.payload, b"request"[..]);
    }

    #[test]
    fn ltl_send_downcasts_from_the_variant_and_from_a_box() {
        assert_is_the_send(Msg::LtlSend(send()).downcast().unwrap());
        assert_is_the_send(Msg::custom(send()).downcast().unwrap());
        let back = Msg::LtlSend(send()).downcast::<LtlDeliver>().unwrap_err();
        assert!(matches!(back, Msg::LtlSend(_)), "got {back:?}");
        assert_is_the_send(back.downcast().unwrap());
    }

    fn inject() -> FlowSimCmd {
        FlowSimCmd::Inject(std::sync::Arc::new(vec![crate::flowsim::FlowBatch {
            src_pod: 4,
            dst_pod: 1,
            bytes: 9_000,
            flows: 3,
        }]))
    }

    const PRESSURE: SwitchCmd = SwitchCmd::SetBackgroundLoad {
        port: PortId(2),
        bytes: 10_000,
    };

    fn assert_is_the_pressure(cmd: SwitchCmd) {
        assert!(
            matches!(
                cmd,
                SwitchCmd::SetBackgroundLoad {
                    port: PortId(2),
                    bytes: 10_000
                }
            ),
            "got {cmd:?}"
        );
    }

    #[test]
    fn command_variants_downcast_to_their_payloads() {
        assert_eq!(
            Msg::FlowSim(inject()).downcast::<FlowSimCmd>().unwrap(),
            inject()
        );
        assert_is_the_pressure(Msg::Switch(PRESSURE).downcast().unwrap());
    }

    #[test]
    fn wrong_type_downcast_returns_the_command_variant_intact() {
        let back = Msg::FlowSim(inject()).downcast::<SwitchCmd>().unwrap_err();
        assert!(matches!(back, Msg::FlowSim(_)), "got {back:?}");
        assert_eq!(back.downcast::<FlowSimCmd>().unwrap(), inject());
        let back = Msg::Switch(PRESSURE).downcast::<FlowSimCmd>().unwrap_err();
        assert!(matches!(back, Msg::Switch(_)), "got {back:?}");
        assert_is_the_pressure(back.downcast().unwrap());
    }

    /// A sender outside the tree that still boxes its command is served
    /// by the same `downcast` as the variant.
    #[test]
    fn boxed_switch_command_still_reaches_a_switch() {
        use crate::switch::{FabricShape, Switch, SwitchConfig, SwitchRole};
        use dcsim::{Engine, SimTime};

        let shape = FabricShape {
            hosts_per_tor: 4,
            tors_per_pod: 2,
            pods: 2,
            spines: 2,
        };
        let mut e: Engine<Msg> = Engine::new(1);
        let sw = e.add_component(Switch::new(
            SwitchRole::Tor { pod: 0, tor: 0 },
            shape,
            SwitchConfig::default(),
        ));
        e.schedule(SimTime::ZERO, sw, Msg::custom(PRESSURE));
        e.run_to_idle();
        let switch = e.component::<Switch>(sw).unwrap();
        assert_eq!(switch.background_bytes(PortId(2)), 10_000);
    }

    /// What the vendored `Bytes` staying three words buys: no queued
    /// event grows, so the heap high-water mark does not move.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn queue_node_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Bytes>(), 24);
        assert_eq!(std::mem::size_of::<Packet>(), 56);
        assert_eq!(std::mem::size_of::<Msg>(), 72);
    }

    #[test]
    fn hot_variants_are_not_custom_payloads() {
        let mk = || {
            Packet::new(
                NodeAddr::new(0, 0, 0),
                NodeAddr::new(0, 0, 1),
                1,
                2,
                TrafficClass::LTL,
                Bytes::new(),
            )
        };
        let egress = Msg::Egress {
            port: PortId(5),
            pkt: mk(),
        };
        assert!(egress.downcast::<u32>().is_err());
        let rx = Msg::LtlRx(mk());
        assert!(rx.downcast::<u32>().is_err());
        assert!(format!("{:?}", Msg::LtlRx(mk())).starts_with("LtlRx"));
        let command = Msg::LtlSend(send());
        assert!(!matches!(command, Msg::Custom(_)));
        assert!(command.downcast::<u32>().is_err());
        assert!(format!("{:?}", Msg::LtlSend(send())).starts_with("LtlSend"));
        let delivery = Msg::LtlDeliver(deliver());
        assert!(!matches!(delivery, Msg::Custom(_)));
        assert!(delivery.downcast::<u32>().is_err());
        assert!(format!("{:?}", Msg::LtlDeliver(deliver())).starts_with("LtlDeliver"));
        for (cmd, name) in [
            (Msg::FlowSim(inject()), "FlowSim"),
            (Msg::Switch(PRESSURE), "Switch"),
        ] {
            assert!(!matches!(cmd, Msg::Custom(_)));
            assert!(format!("{cmd:?}").starts_with(name));
            assert!(cmd.downcast::<u32>().is_err());
        }
    }
}
