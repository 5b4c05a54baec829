//! Figure 7: five-day production throughput and 99.9th-percentile latency
//! of ranking in two datacenters, with and without FPGAs. The software
//! datacenter shows latency spikes as load varies; the FPGA datacenter
//! holds lower, tighter latencies at much higher served load.

use crate::{output, Args};
use catapult::prelude::*;
use experiments::{production, ProductionParams};

pub fn run(args: &Args) {
    output::header(
        "Figure 7",
        "Five-day production throughput and tail latency",
    );
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
    println!("{}", result.table());
    println!(
        "software DC: peak load {:.2}, worst p99.9 {:.1}x target",
        result.sw_peak_load, result.sw_worst_p999
    );
    println!(
        "FPGA DC:     peak load {:.2}, worst p99.9 {:.1}x target",
        result.fpga_peak_load, result.fpga_worst_p999
    );
    println!("paper: FPGA DC absorbs ~2x the load with lower, tighter-bound tail latency");
    output::write_json("fig07_production", &result);
}
