//! Section II: the power-virus measurement — 29.2 W worst case against the
//! 32 W TDP and 35 W electrical limit.

use crate::{output, Args};
use catapult::prelude::*;
use experiments::power_table;

pub fn run(_args: &Args) {
    output::header("Section II", "Board power: virus vs TDP");
    let t = power_table();
    println!("{}", t.table());
    println!("paper: 29.2 W worst case, within 32 W TDP and 35 W limit");
    output::write_json("tab_power", &t);
}
