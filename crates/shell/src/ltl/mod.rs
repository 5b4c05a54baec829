//! Lightweight Transport Layer: reliable, ordered, low-latency
//! FPGA-to-FPGA messaging over the datacenter network (Section V-A).
//!
//! Two runtime-selectable transport modes share the engine: the paper's
//! go-back-N and a selective-repeat mode with SACK bitmaps and an
//! adaptive, RTT-derived retransmission timeout (Transport v2).
//! [`Endpoint`] drives an engine from a simulation component; the shell,
//! the transport oracle and the `ltl_ab` experiment all pump through it.

mod endpoint;
mod engine;
mod frame;
mod rto;

pub use endpoint::{Endpoint, TxKind, TICK};
pub use engine::{
    LtlConfig, LtlEngine, LtlEvent, LtlMode, LtlStats, Poll, RecvConnId, RecvConnView, SendConnId,
    SendConnView, SendError,
};
pub use frame::{FrameError, FrameKind, LtlFrame, LTL_HEADER_BYTES};
pub use rto::RtoEstimator;
