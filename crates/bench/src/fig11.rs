//! Figure 11: software vs local-FPGA vs remote-FPGA ranking. The remote
//! curve runs feature extraction on another machine's FPGA over LTL
//! through the simulated network; the paper finds the latency overhead of
//! remote access minimal across the throughput range.

use crate::{output, Args};
use catapult::prelude::*;
use experiments::{fig11, RankingSweepParams};

pub fn run(args: &Args) {
    output::header("Figure 11", "Remote acceleration of ranking over LTL");
    let params = if args.switch("--quick") {
        RankingSweepParams {
            queries_per_point: 10_000,
            loads: vec![0.5, 1.0, 1.5, 2.0, 2.25],
            seed: 0x0F16_0011,
            ..RankingSweepParams::default()
        }
    } else {
        RankingSweepParams {
            queries_per_point: 100_000,
            seed: 0x0F16_0011,
            ..RankingSweepParams::default()
        }
    };
    let curves = fig11(&params);
    println!("{}", curves.table());
    // Quantify the remote overhead at matched load points.
    let mut overheads = Vec::new();
    for r in &curves.remote_fpga {
        if let Some(l) = curves
            .local_fpga
            .iter()
            .find(|l| (l.offered - r.offered).abs() < 1e-9)
        {
            if l.p999 > 0.0 {
                overheads.push((r.offered, (r.p999 / l.p999 - 1.0) * 100.0));
            }
        }
    }
    for (load, pct) in &overheads {
        println!("remote p99.9 overhead at load {load:.2}: {pct:+.1}%");
    }
    println!("paper: the latency overhead of remote accesses is minimal");
    output::write_json("fig11_remote_ranking", &curves);
}
