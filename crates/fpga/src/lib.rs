//! # fpga — Catapult v2 accelerator board model
//!
//! The paper's hardware substrate, rebuilt as resource-accounting models:
//!
//! * [`Board`] / [`STRATIX_V_D5`] — the Stratix V D5 card of Figures 2–3
//!   (4 GB DDR3, dual PCIe Gen3 x8, dual 40 GbE QSFP+, 256 Mb flash);
//! * [`AreaLedger`] and [`production_shell_image`] — the ALM area/frequency
//!   accounting behind Figure 5;
//! * [`STANDARD_CARVE_ALMS`] — the multi-tenant carve of the role area
//!   into three partial-reconfiguration regions (25/25/50 %);
//! * [`Image`] and [`FULL_RECONFIG_TIME`] / [`PARTIAL_RECONFIG_TIME`] —
//!   golden and application images and their load times (the per-node
//!   configuration state lives in `haas::FpgaManager`);
//! * [`SeuModel`] — single-event upsets and the 30-second configuration
//!   scrubber (1 flip per 1025 machine-days);
//! * [`PowerModel`] — the power-virus measurement (29.2 W worst-case under
//!   a 32 W TDP);
//! * [`SoakModel`] — the Section II-B deployment soak failure statistics.
//!
//! # Examples
//!
//! ```
//! use fpga::{production_shell_image, Region};
//!
//! let image = production_shell_image();
//! assert!(image.fits());
//! // The role still gets a third of the device even with the full shell.
//! assert!(image.region_fraction(Region::Role) > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod area;
mod device;
mod image;
mod power;
mod reliability;
mod seu;

pub use area::{
    production_shell_image, AreaItem, AreaLedger, Region, MULTI_TENANT_SHELL_ALMS,
    STANDARD_CARVE_ALMS, STANDARD_SPLIT_PERMILLE,
};
pub use device::{
    Board, Device, DRAM_ACCESS_LATENCY, FULL_RECONFIG_TIME, PARTIAL_RECONFIG_TIME,
    SRAM_ACCESS_LATENCY, STRATIX_V_D5,
};
pub use image::Image;
pub use power::{Activity, PowerComponent, PowerModel};
pub use reliability::{FailureRates, SoakModel, SoakReport};
pub use seu::{SeuModel, SeuReport};
