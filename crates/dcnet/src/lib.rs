//! # dcnet — datacenter network substrate
//!
//! An event-level model of the three-tier datacenter Ethernet the paper's
//! Configurable Cloud rides on: 40 GbE links with serialization and
//! propagation delay ([`LinkTx`]), output-queued switches with per-class
//! queues, strict-priority scheduling, RED/ECN marking and IEEE 802.1Qbb
//! priority flow control ([`Switch`]), DC-QCN congestion control state
//! machines ([`DcqcnRp`], [`CnpPacer`]), and a [`Fabric`] builder that
//! instantiates TOR/aggregation/spine tiers at any scale up to the paper's
//! quarter-million-host deployments.
//!
//! Packets carry real Ethernet/IPv4/UDP framing ([`Packet::encode_wire`])
//! so higher layers — the LTL transport and the crypto bump-in-the-wire
//! role — operate on genuine bytes.
//!
//! # Examples
//!
//! Build a one-pod fabric and check a route:
//!
//! ```
//! use dcnet::{FabricBuilder, Msg, NodeAddr};
//! use dcsim::Engine;
//!
//! let mut engine: Engine<Msg> = Engine::new(1);
//! let fabric = FabricBuilder::new().build(&mut engine);
//! assert_eq!(fabric.shape().total_hosts(), 24 * 40);
//! let _tor = fabric.tor_switch(0, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod addr;
mod dcqcn;
mod flowsim;
mod link;
mod msg;
mod packet;
mod switch;
mod topology;

pub use addr::{AddrError, MacAddr, NodeAddr};
pub use dcqcn::{CnpPacer, DcqcnConfig, DcqcnRp};
pub use flowsim::{needs_flowsim, FlowBatch, FlowSim, FlowSimCmd, FlowSimConfig};
pub use link::{LinkParams, LinkTx, TxTiming};
pub use msg::{LtlDeliver, LtlSend, Msg, NetEvent, PortId};
pub use packet::{
    DecodeError, Ecn, Packet, TrafficClass, FRAME_OVERHEAD_BYTES, HEADER_BYTES, LTL_UDP_PORT,
    MTU_PAYLOAD,
};
pub use switch::{
    EcnConfig, FabricShape, Jitter, PfcConfig, Switch, SwitchCmd, SwitchConfig, SwitchRole,
    SwitchStats,
};
pub use topology::{
    Attachment, Fabric, FabricBuilder, FabricConfig, FabricPartition, Fidelity, FidelityMap,
    PartitionError,
};
