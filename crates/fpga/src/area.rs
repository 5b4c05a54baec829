//! ALM area accounting — the model behind Figure 5.
//!
//! Every shell block and role registers its ALM cost and clock frequency in
//! an [`AreaLedger`]; the ledger checks that the design fits the device and
//! renders the paper's area/frequency breakdown table.

use core::fmt;

use crate::device::{Device, STRATIX_V_D5};

/// Whether an area item belongs to the shell, the role, or neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Common I/O and board-specific logic shared by all applications.
    Shell,
    /// Application logic.
    Role,
    /// Glue, configuration and debug logic not attributed to either.
    Other,
}

/// One row of the area table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaItem {
    /// Component name as it appears in the table.
    pub name: String,
    /// ALMs consumed.
    pub alms: u32,
    /// Achieved clock frequency in MHz, if the block has a single clock.
    pub clock_mhz: Option<u32>,
    /// Shell/role attribution.
    pub region: Region,
}

/// Accumulates area items against a device's budget.
///
/// # Examples
///
/// ```
/// use fpga::{AreaLedger, Region, STRATIX_V_D5};
///
/// let mut ledger = AreaLedger::new(STRATIX_V_D5);
/// ledger.register("My role", 50_000, Some(175), Region::Role);
/// assert!(ledger.fits());
/// assert_eq!(ledger.used_alms(), 50_000);
/// ```
#[derive(Debug, Clone)]
pub struct AreaLedger {
    device: Device,
    items: Vec<AreaItem>,
}

impl AreaLedger {
    /// Creates an empty ledger for `device`.
    pub fn new(device: Device) -> Self {
        AreaLedger {
            device,
            items: Vec::new(),
        }
    }

    /// Registers a component's area cost.
    pub fn register(
        &mut self,
        name: &str,
        alms: u32,
        clock_mhz: Option<u32>,
        region: Region,
    ) -> &mut Self {
        self.items.push(AreaItem {
            name: name.to_string(),
            alms,
            clock_mhz,
            region,
        });
        self
    }

    /// The registered items, in registration order.
    pub fn items(&self) -> &[AreaItem] {
        &self.items
    }

    /// The device this ledger budgets against.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Total ALMs consumed.
    pub fn used_alms(&self) -> u32 {
        self.items.iter().map(|i| i.alms).sum()
    }

    /// ALMs consumed by a region.
    pub fn region_alms(&self, region: Region) -> u32 {
        self.items
            .iter()
            .filter(|i| i.region == region)
            .map(|i| i.alms)
            .sum()
    }

    /// Fraction of the device consumed in total, in percent.
    pub fn used_fraction(&self) -> f64 {
        self.used_alms() as f64 / self.device.alms as f64
    }

    /// Fraction of the device consumed by a region.
    pub fn region_fraction(&self, region: Region) -> f64 {
        self.region_alms(region) as f64 / self.device.alms as f64
    }

    /// Whether the design fits on the device.
    pub fn fits(&self) -> bool {
        self.used_alms() <= self.device.alms
    }

    /// ALMs still available for additional roles.
    pub fn free_alms(&self) -> u32 {
        self.device.alms.saturating_sub(self.used_alms())
    }
}

impl fmt::Display for AreaLedger {
    /// Renders the ledger in the layout of Figure 5.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28} {:>9} {:>6} {:>6}",
            "Component", "ALMs", "%", "MHz"
        )?;
        for item in &self.items {
            let pct = item.alms as f64 / self.device.alms as f64 * 100.0;
            let mhz = item
                .clock_mhz
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".to_string());
            writeln!(
                f,
                "{:<28} {:>9} {:>5.0}% {:>6}",
                item.name, item.alms, pct, mhz
            )?;
        }
        writeln!(
            f,
            "{:<28} {:>9} {:>5.0}% {:>6}",
            "Total Area Used",
            self.used_alms(),
            self.used_fraction() * 100.0,
            "-"
        )?;
        write!(
            f,
            "{:<28} {:>9} {:>6} {:>6}",
            "Total Area Available", self.device.alms, "", "-"
        )
    }
}

/// The Figure-5 shell footprint (shell + unattributed glue), reserved on
/// every multi-tenant board: the bridge, MACs, DDR controller, LTL, ER,
/// DMA and debug logic stay resident across all tenant loads.
pub const MULTI_TENANT_SHELL_ALMS: u32 = 76_010;

/// Default role-area split, in permille: two small tenant slots and one
/// large one, so a board hosts a mix of region sizes.
pub const STANDARD_SPLIT_PERMILLE: [u32; 3] = [250, 250, 500];

/// The standard multi-tenant carve of one [`STRATIX_V_D5`] board, in
/// ALMs: the role area left beside [`MULTI_TENANT_SHELL_ALMS`], split by
/// [`STANDARD_SPLIT_PERMILLE`] with each region's share floored (so the
/// carve never over-commits the role area).
///
/// # Examples
///
/// ```
/// use fpga::{MULTI_TENANT_SHELL_ALMS, STANDARD_CARVE_ALMS, STRATIX_V_D5};
///
/// let carved: u32 = STANDARD_CARVE_ALMS.iter().sum();
/// assert!(carved <= STRATIX_V_D5.alms - MULTI_TENANT_SHELL_ALMS);
/// ```
pub const STANDARD_CARVE_ALMS: [u32; 3] = {
    let role_area = (STRATIX_V_D5.alms - MULTI_TENANT_SHELL_ALMS) as u64;
    let mut carve = [0; 3];
    let mut i = 0;
    while i < carve.len() {
        carve[i] = (role_area * STANDARD_SPLIT_PERMILLE[i] as u64 / 1000) as u32;
        i += 1;
    }
    carve
};

/// The production-deployed shell image of Figure 5, with remote
/// acceleration support (LTL + Elastic Router) and the ranking role.
///
/// ALM counts are the paper's exact numbers; the MHz column follows the
/// paper's list (313 MHz MAC/PHY and bridge, 200 MHz DDR3, 156 MHz LTL,
/// 250 MHz ER and PCIe DMA, 175 MHz role).
pub fn production_shell_image() -> AreaLedger {
    let mut ledger = AreaLedger::new(STRATIX_V_D5);
    ledger
        .register("Role", 55_340, Some(175), Region::Role)
        .register("40G MAC/PHY (TOR)", 9_785, Some(313), Region::Shell)
        .register("40G MAC/PHY (NIC)", 13_122, Some(313), Region::Shell)
        .register("Network Bridge / Bypass", 4_685, Some(313), Region::Shell)
        .register("DDR3 Memory Controller", 13_225, Some(200), Region::Shell)
        .register("LTL Protocol Engine", 11_839, Some(156), Region::Shell)
        .register("LTL Packet Switch", 6_817, Some(156), Region::Shell)
        .register("Elastic Router", 3_449, Some(250), Region::Shell)
        .register("PCIe Gen3 DMA x 2", 4_815, Some(250), Region::Shell)
        .register("Other", 8_273, None, Region::Other);
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_image_total_matches_figure5() {
        let ledger = production_shell_image();
        assert_eq!(ledger.used_alms(), 131_350);
        assert!((ledger.used_fraction() - 0.76).abs() < 0.005);
        assert!(ledger.fits());
    }

    #[test]
    fn shell_consumes_44_percent() {
        // "the design uses 44% of the FPGA to support all shell functions"
        let ledger = production_shell_image();
        let shell_and_other =
            ledger.region_fraction(Region::Shell) + ledger.region_fraction(Region::Other);
        assert!(
            (shell_and_other - 0.44).abs() < 0.005,
            "shell fraction {shell_and_other}"
        );
    }

    #[test]
    fn role_consumes_32_percent() {
        let ledger = production_shell_image();
        assert!((ledger.region_fraction(Region::Role) - 0.32).abs() < 0.005);
    }

    #[test]
    fn macs_consume_14_percent() {
        // "especially the 40G PHY/MACs at 14%"
        let ledger = production_shell_image();
        let macs: u32 = ledger
            .items()
            .iter()
            .filter(|i| i.name.starts_with("40G MAC"))
            .map(|i| i.alms)
            .sum();
        let frac = macs as f64 / STRATIX_V_D5.alms as f64;
        assert!((frac - 0.14).abs() < 0.01, "macs {frac}");
    }

    #[test]
    fn ltl_7_percent_er_2_percent() {
        // "The area consumed is 7% for LTL and 2% for ER"
        let ledger = production_shell_image();
        let get = |name: &str| {
            ledger
                .items()
                .iter()
                .find(|i| i.name == name)
                .map(|i| i.alms as f64 / STRATIX_V_D5.alms as f64)
                .unwrap()
        };
        assert!((get("LTL Protocol Engine") - 0.07).abs() < 0.005);
        assert!((get("Elastic Router") - 0.02).abs() < 0.005);
    }

    #[test]
    fn overfull_ledger_reports_not_fitting() {
        let mut ledger = AreaLedger::new(STRATIX_V_D5);
        ledger.register("Huge", 200_000, None, Region::Role);
        assert!(!ledger.fits());
        assert_eq!(ledger.free_alms(), 0);
    }

    #[test]
    fn display_contains_all_rows() {
        let table = production_shell_image().to_string();
        for name in [
            "Role",
            "LTL Protocol Engine",
            "Elastic Router",
            "Total Area Used",
            "172600",
            "131350",
        ] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
    }
}
