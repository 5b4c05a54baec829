//! Figure 6: 99th-percentile latency versus throughput of ranking on a
//! single server, software vs local FPGA. Paper: at the target 99th
//! percentile latency, the FPGA sustains 2.25x the software throughput.

use crate::{output, Args};
use catapult::prelude::*;
use experiments::{fig06, RankingSweepParams};

pub fn run(args: &Args) {
    output::header("Figure 6", "Ranking latency vs throughput (single box)");
    let params = if args.switch("--quick") {
        RankingSweepParams {
            queries_per_point: 20_000,
            loads: vec![0.5, 1.0, 1.5, 2.0, 2.25, 2.5, 3.0],
            ..RankingSweepParams::default()
        }
    } else {
        RankingSweepParams::default()
    };
    let curves = fig06(&params);
    println!("{}", curves.table());
    println!("paper: FPGA throughput gain at the p99 latency target = 2.25x");
    output::write_json("fig06_ranking_single", &curves);
}
