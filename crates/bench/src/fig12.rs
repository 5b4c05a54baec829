//! Figure 12: average/p95/p99 latency to a remote DNN accelerator pool as
//! the client-to-FPGA oversubscription ratio grows, normalised to
//! locally-attached performance. Paper at 1:1: +1% average, +4.7% p95,
//! +32% p99; saturation at ~22.5 clients per FPGA.

use crate::{output, Args};
use catapult::prelude::*;
use experiments::{fig12, Fig12Params};

pub fn run(args: &Args) {
    output::header("Figure 12", "Remote DNN pool oversubscription");
    let params = if args.switch("--quick") {
        Fig12Params {
            accelerators: 4,
            requests_per_client: 1_500,
            ..Fig12Params::default()
        }
    } else {
        Fig12Params::default()
    };
    let result = fig12::run(&params);
    println!("{}", result.table());

    // Saturation probe with a small pool so the client count stays sane.
    println!("saturation probe (2 accelerators):");
    let sat = fig12::run(&Fig12Params {
        accelerators: 2,
        ratios: vec![8.0, 14.0, 18.0, 20.0, 22.0, 24.0],
        requests_per_client: if args.switch("--quick") { 800 } else { 2_000 },
        seed: 0xF161_25A0,
        ..params.clone()
    });
    println!("{}", sat.table());
    println!("paper: +1%/+4.7%/+32% at 1:1; latencies spike near 22.5 clients/FPGA");
    output::write_json("fig12_oversubscription", &result);
    output::write_json("fig12_saturation", &sat);
}
