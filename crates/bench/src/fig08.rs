//! Figure 8: 99.9th-percentile latency versus offered load, scatter over
//! the same five-day production run as Figure 7. The software datacenter
//! is capped by the load balancer; the FPGA datacenter absorbs more than
//! twice the load while never exceeding the software latency.

use crate::{output, Args};
use catapult::prelude::*;
use experiments::{production, ProductionParams};

pub fn run(args: &Args) {
    output::header("Figure 8", "Query p99.9 latency vs offered load");
    let params = if args.switch("--quick") {
        ProductionParams {
            days: 2,
            day_length: dcsim::SimDuration::from_secs(10),
            ..ProductionParams::default()
        }
    } else {
        ProductionParams::default()
    };
    let result = production::run(&params);
    let (sw, fpga) = result.scatter();
    println!("{:<10} {:>9} {:>9}", "dc", "load", "p99.9");
    for (l, p) in &sw {
        println!("{:<10} {:>9.2} {:>9.2}", "software", l, p);
    }
    for (l, p) in &fpga {
        println!("{:<10} {:>9.2} {:>9.2}", "fpga", l, p);
    }
    let sw_max = sw.iter().map(|&(l, _)| l).fold(0.0f64, f64::max);
    let fpga_max = fpga.iter().map(|&(l, _)| l).fold(0.0f64, f64::max);
    println!(
        "\nmax observed load: software {:.2} (balancer-capped), fpga {:.2} ({:.1}x)",
        sw_max,
        fpga_max,
        fpga_max / sw_max
    );
    println!("paper: FPGA DC absorbs >2x offered load at latency never exceeding software");
    output::write_json("fig08_load_latency", &result);
}
