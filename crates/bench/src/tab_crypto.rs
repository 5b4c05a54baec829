//! Section IV: crypto offload cost comparison — CPU cores at 40 Gb/s and
//! per-packet latency, software vs FPGA, plus a real-throughput check of
//! this crate's AES implementations.

use crate::{output, Args};
use apps::crypto::{Aes, AesGcm};
use catapult::prelude::*;
use experiments::crypto_table;
use std::time::Instant;

fn measure_impl_throughput() {
    // Real software throughput of our pure-Rust AES (not the paper's
    // AES-NI numbers; this documents what the simulator actually computes).
    let gcm = AesGcm::new_128(b"0123456789abcdef");
    let mut buf = vec![0u8; 1 << 20];
    let iv = [0u8; 12];
    let start = Instant::now();
    let tag = gcm.seal(&iv, &[], &mut buf);
    let mbps = buf.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
    println!(
        "pure-Rust AES-GCM-128 seal: {mbps:.1} MB/s (tag {:02x}{:02x}..)",
        tag[0], tag[1]
    );

    let aes = Aes::new_128(b"0123456789abcdef");
    let mut block = [0u8; 16];
    let start = Instant::now();
    let blocks = 200_000;
    for _ in 0..blocks {
        aes.encrypt_block(&mut block);
    }
    let mbps = (blocks * 16) as f64 / start.elapsed().as_secs_f64() / 1e6;
    println!("pure-Rust AES-128 block encrypt: {mbps:.1} MB/s");
}

pub fn run(_args: &Args) {
    output::header("Section IV", "Line-rate crypto: CPU cores vs FPGA offload");
    let table = crypto_table();
    println!("{}", table.table());
    println!("paper: GCM ~5 cores, CBC-SHA1 >=15 cores at 40 Gb/s full duplex;");
    println!("       FPGA 0 cores; CBC-SHA1 packet latency 11us (FPGA) vs ~4us (SW)");
    println!();
    measure_impl_throughput();
    output::write_json("tab_crypto", &table);
}
