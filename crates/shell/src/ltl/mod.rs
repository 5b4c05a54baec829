//! Lightweight Transport Layer: reliable, ordered, low-latency
//! FPGA-to-FPGA messaging over the datacenter network (Section V-A).
//!
//! Two runtime-selectable transport modes, the paper's go-back-N and
//! selective repeat (Transport v2), run one receive, acknowledgment, NACK
//! and retransmission path through [`LtlEngine`]. They differ only in
//! what happens to a gap frame, how a data frame is answered, what a NACK
//! re-queues and which retransmission timeout applies.
//! [`Endpoint`] drives an engine from a simulation component; the shell,
//! the transport oracle and the `ltl_ab` experiment all pump through it.

mod endpoint;
mod engine;
mod frame;
mod rto;

pub use endpoint::{Endpoint, TxKind};
pub use engine::{
    LtlConfig, LtlEngine, LtlEvent, LtlMode, LtlStats, Poll, RecvConnId, SendConnId, SendError,
    RECV_WINDOW,
};
pub use frame::{FrameError, FrameKind, LtlFrame, LTL_HEADER_BYTES};
pub use rto::RtoEstimator;
