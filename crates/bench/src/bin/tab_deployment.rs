//! Section II-B: the 5,760-server one-month deployment soak, reproduced by
//! failure injection at the paper's measured rates.

use catapult::prelude::*;
use experiments::deployment_table;

fn main() {
    bench::header("Section II-B", "Deployment soak failure statistics");
    let seed = 0x000D_EB10_u64;
    let t = deployment_table(5_760, 30.0, seed);
    println!("{}", t.table());
    println!(
        "loss fraction acceptable for production: {}",
        t.simulated.fpga_hard <= 8
    );
    bench::write_json("tab_deployment", &t);
}
