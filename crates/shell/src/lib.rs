//! # shell — the Configurable Cloud FPGA shell
//!
//! The common logic deployed on every FPGA (Figure 4), built from three
//! pieces:
//!
//! * [`Shell`] — the bump-in-the-wire component: a NIC<->TOR bridge with a
//!   role [`NetworkTap`], PFC reaction, and the LTL endpoint;
//! * [`ltl`] — the Lightweight Transport Layer: send/receive connection
//!   tables, an unacknowledged frame store, ACK/NACK retransmission with a
//!   50 µs timeout, bandwidth limiting and DC-QCN congestion control;
//! * [`ElasticRouter`] — the on-chip input-buffered crossbar with virtual
//!   channels and the elastic shared credit pool;
//! * [`tenant`] — per-tenant ER-bandwidth and LTL-credit caps enforced at
//!   the shell's send-admission point when one board hosts several
//!   partial-reconfiguration tenants.
//!
//! # Examples
//!
//! Protocol-level use without a network (two engines back to back):
//!
//! ```
//! use bytes::Bytes;
//! use dcnet::NodeAddr;
//! use dcsim::SimTime;
//! use shell::ltl::{LtlConfig, LtlEngine, Poll};
//!
//! let a_addr = NodeAddr::new(0, 0, 1);
//! let b_addr = NodeAddr::new(0, 0, 2);
//! let mut a = LtlEngine::new(a_addr, LtlConfig::default());
//! let mut b = LtlEngine::new(b_addr, LtlConfig::default());
//! let b_recv = b.add_recv(a_addr);
//! let conn = a.add_send(b_addr, b_recv);
//! a.send_message(conn, 0, Bytes::from_static(b"hi"))?;
//! if let Poll::Ready(pkt) = a.poll(SimTime::ZERO) {
//!     let events = b.on_packet(&pkt, SimTime::from_micros(3));
//!     assert_eq!(events.len(), 1);
//! }
//! # Ok::<(), shell::ltl::SendError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod er;
mod er_net;
pub mod ltl;
mod shell;
mod tap;
pub mod tenant;

/// The send command and the delivery upcall live beside [`dcnet::Msg`],
/// which carries each as a typed variant; re-exported here because the
/// shell is the one consumer of the first and the one producer of the
/// second.
pub use dcnet::{LtlDeliver, LtlSend};
pub use er::{CreditPolicy, ElasticRouter, ErConfig, ErStats, Flit, InjectError};
pub use er_net::{ErMessage, ErNetwork, NetPort};
pub use shell::{LtlConnFailed, Shell, ShellCmd, ShellConfig, ShellStats, PORT_NIC, PORT_TOR};
pub use tap::{NetworkTap, PassthroughTap, TapAction};
pub use tenant::{TenantCapTable, TenantCaps, TenantId, CAP_WINDOW};
