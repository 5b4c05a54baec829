//! # haas — Hardware-as-a-Service (Section V-F, Figure 13)
//!
//! The management plane that turns the datacenter's FPGAs into a global
//! pool. One allocator, [`ElasticScheduler`], owns the pool: it leases PR
//! regions to tenants with priority preemption, periodic defragmentation
//! and spot reclamation, emitting a deterministic [`Decision`] log. With
//! every board registered as one whole-board region
//! ([`whole_board_pool`]) it is the paper's logically centralised
//! Resource Manager: per-service [`ServiceManager`]s lease boards from it,
//! balance load across their [`HwComponent`]s and replace failed boards;
//! the [`FailureMonitor`] takes reported boards out of the pool; a
//! lightweight [`FpgaManager`] per node handles configuration and status
//! for the machine it runs on.
//!
//! # Examples
//!
//! ```
//! use dcnet::NodeAddr;
//! use dcsim::SimTime;
//! use haas::{whole_board_pool, ServiceManager};
//! use shell::tenant::TenantId;
//!
//! let mut pool = whole_board_pool((0..8).map(|h| NodeAddr::new(0, 0, h)));
//! let mut sm = ServiceManager::new("dnn-pool", TenantId(1));
//! sm.grow(&mut pool, SimTime::ZERO, 4)?;
//! assert_eq!(sm.endpoints().len(), 4);
//! assert_eq!(pool.leases().count(), 4);
//! # Ok::<(), haas::ElasticError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elastic;
mod fm;
mod health;
mod sm;

pub use elastic::{
    fingerprint_decision, Decision, ElasticConfig, ElasticError, ElasticScheduler, LeaseEvent,
    LeaseEventKind, PlacementRow, RegionLease, RegionRef, TenantClass,
};
pub use fm::{FpgaManager, NodeStatus};
pub use health::{DeployImage, FailureMonitor, NodeDownReport, RecoveryRecord};
pub use sm::{whole_board_alms, whole_board_pool, HwComponent, ServiceManager};
