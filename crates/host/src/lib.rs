//! # host — the server side of the Configurable Cloud
//!
//! Models of the production server a Catapult v2 card plugs into:
//!
//! * [`CorePool`] — FIFO multi-core service (the M/G/c discipline the
//!   ranking software runs under);
//! * [`PcieModel`] — PCIe Gen3 x8 DMA timing to the local FPGA;
//! * [`SoftStackModel`] — host software networking stack traversal cost,
//!   the latency LTL avoids by never touching CPUs;
//! * [`OpenLoopGen`] / [`LoadTrace`] — Poisson open-loop workload
//!   generation with diurnal modulation for the five-day production
//!   experiments.
//!
//! # Examples
//!
//! ```
//! use dcsim::{SimDuration, SimTime};
//! use host::{CorePool, PcieModel};
//!
//! // A 12-core server: offloading 3.75 ms of feature extraction per query
//! // to the FPGA costs only a PCIe round trip.
//! let mut cores = CorePool::new(12);
//! let (_, end) = cores.assign(SimTime::ZERO, SimDuration::from_millis(3));
//! let offload = PcieModel::default().round_trip(60 * 1024, 4 * 1024);
//! assert!(offload < SimDuration::from_micros(20));
//! assert!(end.as_nanos() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cores;
mod io;
mod traffic;
mod workload;

pub use cores::CorePool;
pub use io::{AcceleratorLocality, PcieModel, SoftStackModel, LOCAL_SSD_ACCESS};
pub use traffic::{TrafficGen, TrafficGenConfig};
pub use workload::{LoadTrace, OpenLoopGen, StartGenerator};
