//! # apps — the accelerated services of the Configurable Cloud
//!
//! The three workloads the paper evaluates, implemented for real and
//! paired with calibrated timing models:
//!
//! * [`ranking`] — Bing web search ranking (Section III): finite-state
//!   feature machines (FFU), dynamic-programming features (DPF), the
//!   software scorer, and the [`ranking::RankingServer`] service model
//!   behind the latency/throughput figures;
//! * [`crypto`] — line-rate network encryption (Section IV): real
//!   AES-GCM-128 and AES-CBC-128-SHA1 running in a bump-in-the-wire
//!   [`crypto::CryptoTap`], plus the CPU-core cost model;
//! * [`dnn`] — the MLP inference workload served by the remote
//!   accelerator pool (Section V-E);
//! * [`remote`] — the generic remote-acceleration roles:
//!   [`remote::AcceleratorRole`] (FPGA side) and
//!   [`remote::RemoteClient`] (software side).
//!
//! # Examples
//!
//! Rank a couple of documents end to end:
//!
//! ```
//! use apps::ranking::{rank_documents, Document, Query};
//!
//! let query = Query { terms: vec![10, 20] };
//! let good = Document { tokens: vec![10, 20, 3, 10, 20] };
//! let bad = Document { tokens: vec![1, 2, 3, 4, 5] };
//! let ranked = rank_documents(&query, &[bad, good], 42);
//! assert_eq!(ranked[0].0, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod crypto;
pub mod dnn;
pub mod ranking;
pub mod remote;

/// Counters shared by bridge taps (crypto and future roles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapStats {
    /// Packets encrypted on the outbound path.
    pub encrypted: u64,
    /// Packets decrypted on the inbound path.
    pub decrypted: u64,
    /// Packets forwarded untouched (no flow-table hit).
    pub passed: u64,
    /// Packets dropped for failing authentication.
    pub auth_failures: u64,
}
