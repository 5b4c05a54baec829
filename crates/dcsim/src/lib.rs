//! # dcsim — deterministic discrete-event simulation kernel
//!
//! The substrate under the whole Configurable Cloud reproduction. Everything
//! time-dependent — switches, links, FPGA shells, hosts, workload generators
//! — is a [`Component`] registered with an [`Engine`] and driven entirely by
//! timestamped messages, so a run is a pure function of its seed and inputs.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time;
//! * [`Engine`], [`Component`], [`Context`] — the event loop;
//! * [`ShardedEngine`], [`ShardPlan`] — conservative-window parallel
//!   execution of one simulation across component shards;
//! * [`SimRng`] — seeded randomness plus the distributions the simulator
//!   needs (exponential, normal, lognormal);
//! * [`fnv1a`] — the stable hash behind every determinism fingerprint.
//!
//! Measurement lives above the kernel: exact sample recording and the one
//! nearest-rank percentile rule are `telemetry::Histogram` and
//! `telemetry::nearest_rank`.
//!
//! # Examples
//!
//! A node that echoes messages back after a fixed service time:
//!
//! ```
//! use dcsim::*;
//!
//! struct Echo { replies: u64 }
//!
//! impl Component<(ComponentId, u64)> for Echo {
//!     fn on_message(&mut self, (from, n): (ComponentId, u64), ctx: &mut Context<'_, (ComponentId, u64)>) {
//!         self.replies += 1;
//!         if n > 0 {
//!             ctx.send_after(SimDuration::from_micros(1), from, (ctx.id(), n - 1));
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(7);
//! let a = engine.add_component(Echo { replies: 0 });
//! let b = engine.add_component(Echo { replies: 0 });
//! engine.schedule(SimTime::ZERO, a, (b, 9));
//! engine.run_to_idle();
//! let total = engine.component::<Echo>(a).unwrap().replies
//!     + engine.component::<Echo>(b).unwrap().replies;
//! assert_eq!(total, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod engine;
mod hash;
mod queue;
mod rng;
mod sharded;
mod time;

pub use engine::{Component, ComponentId, Context, Engine, EventRecord, Observer, TimerKey};
pub use hash::{fnv1a, FNV1A_OFFSET};
pub use queue::QueueStats;
pub use rng::SimRng;
pub use sharded::{ShardPlan, ShardSyncStats, ShardedEngine, WindowPolicy};
pub use time::{SimDuration, SimTime};
