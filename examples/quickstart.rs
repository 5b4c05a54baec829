//! Quickstart: build a small Configurable Cloud, send an LTL message
//! between two FPGAs, and rank documents with the real FFU/DPF pipeline.
//!
//! Run with: `cargo run --example quickstart`

use apps::ranking::{rank_documents, CorpusGen};
use bytes::Bytes;
use catapult::{probe::schedule_probes, ClusterBuilder};
use dcnet::{Msg, NodeAddr};
use dcsim::{Component, Context, SimDuration, SimRng, SimTime};
use shell::{LtlDeliver, LtlSend};

/// Receives LTL messages on behalf of the local role.
#[derive(Debug, Default)]
struct Receiver {
    messages: Vec<LtlDeliver>,
}

impl Component<Msg> for Receiver {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Ok(d) = msg.downcast::<LtlDeliver>() {
            if self.messages.len() < 3 {
                println!(
                    "  [{}] FPGA received {} bytes from {} on vc {}",
                    ctx.now(),
                    d.payload.len(),
                    d.src,
                    d.vc
                );
            }
            self.messages.push(d);
        }
    }
}

fn main() {
    println!("== 1. A one-pod Configurable Cloud (960 host slots) ==");
    let mut cloud = ClusterBuilder::paper(42, 1).build();
    println!(
        "fabric: {} switches, {} host slots",
        cloud.fabric().switch_count(),
        cloud.fabric().shape().total_hosts()
    );

    // Two servers in different racks get bump-in-the-wire FPGAs.
    let a = NodeAddr::new(0, 0, 3);
    let b = NodeAddr::new(0, 7, 11);
    let a_shell = cloud.add_shell(a);
    cloud.add_shell(b);
    let (a_to_b, _b_to_a, _, _) = cloud.connect_pair(a, b);

    println!("\n== 2. Direct FPGA-to-FPGA messaging over LTL ==");
    let receiver = cloud.engine_mut().add_component(Receiver::default());
    cloud.set_consumer(b, receiver);
    cloud.engine_mut().schedule(
        SimTime::ZERO,
        a_shell,
        Msg::LtlSend(LtlSend {
            conn: a_to_b,
            vc: 1,
            payload: Bytes::from_static(b"hello from the acceleration plane"),
        }),
    );
    // Measure round trips at a low probe rate too.
    schedule_probes(
        &mut cloud,
        a,
        a_to_b,
        SimTime::from_micros(10),
        SimDuration::from_micros(100),
        100,
        32,
    );
    cloud.run_to_idle();
    let rtts = cloud.shell(a).ltl().rtts();
    println!(
        "  LTL RTT across the pod: avg {:.2}us, p99 {:.2}us over {} probes",
        rtts.mean() / 1e3,
        rtts.percentile(99.0).unwrap_or(0) as f64 / 1e3,
        rtts.count()
    );

    println!("\n== 3. The ranking computation the FPGA accelerates ==");
    let gen = CorpusGen::new(50_000, 1.0);
    let mut rng = SimRng::seed_from(7);
    let query = gen.query(&mut rng, 3);
    let docs: Vec<_> = (0..8)
        .map(|i| gen.document(&mut rng, &query, 300, if i < 2 { 1.0 } else { 0.0 }))
        .collect();
    let ranked = rank_documents(&query, &docs, 42);
    println!("  query terms: {:?}", query.terms);
    for (rank, (doc, score)) in ranked.iter().take(3).enumerate() {
        let planted = if *doc < 2 {
            " (relevant: query terms planted)"
        } else {
            ""
        };
        println!(
            "  #{} -> document {} (score {:.3}){planted}",
            rank + 1,
            doc,
            score
        );
    }
    println!("\ndone.");
}
