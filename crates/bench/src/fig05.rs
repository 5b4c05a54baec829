//! Figure 5: area and frequency breakdown of the production-deployed
//! shell image with remote acceleration support.

use crate::{output, Args};
use catapult::prelude::*;
use experiments::{fig05_summary, fig05_table};

pub fn run(_args: &Args) {
    output::header("Figure 5", "Shell area/frequency breakdown");
    println!("{}", fig05_table());
    let s = fig05_summary();
    println!(
        "\nshell+other: {:.0}%  role: {:.0}%  total used: {:.0}%",
        s.shell_fraction * 100.0,
        s.role_fraction * 100.0,
        s.used_fraction * 100.0
    );
    println!("paper: shell 44%, role 32%, total 76% of 172,600 ALMs");
    output::write_json("fig05_area", &s);
}
