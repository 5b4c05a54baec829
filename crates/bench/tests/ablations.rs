//! Ablations of three design choices DESIGN.md calls out, each a claim
//! about a simulated result (EXPERIMENTS.md, "Ablations"):
//!
//! 1. Elastic vs static ER credit pools: cycles to deliver a skewed VC
//!    load with equal total buffering.
//! 2. NACK fast retransmit vs timeout-only: recovery time after reorder.
//! 3. Lossless (PFC) vs lossy network classes for LTL: completion time
//!    under incast.

use bytes::Bytes;
use catapult::ClusterBuilder;
use dcnet::{Msg, NodeAddr};
use dcsim::{SimDuration, SimTime};
use shell::ltl::{LtlConfig, LtlEngine, Poll};
use shell::{CreditPolicy, ElasticRouter, ErConfig, Flit, LtlSend};

/// Pushes a skewed workload (90% of traffic on one VC) through a router
/// and returns the cycles needed to deliver all flits.
fn skewed_vc_cycles(policy: CreditPolicy) -> u64 {
    // Same total buffering: static 6+6 per VC vs elastic 2+2 plus 8 shared.
    let (credits_per_vc, shared_credits) = match policy {
        CreditPolicy::Static => (6, 0),
        CreditPolicy::Elastic => (2, 8),
    };
    let mut er = ElasticRouter::new(ErConfig {
        ports: 4,
        vcs: 2,
        credits_per_vc,
        shared_credits,
        policy,
        flit_bytes: 32,
    });
    let mut pending: Vec<Flit> = (0..400u64)
        .map(|i| Flit {
            out_port: (i % 3) as usize + 1,
            vc: if i % 10 == 0 { 1 } else { 0 }, // 90% on VC 0
            tail: true,
            msg_id: i,
            flit_seq: 0,
        })
        .collect();
    pending.reverse();
    let mut cycles = 0u64;
    let mut delivered = 0usize;
    let total = pending.len();
    while delivered < total {
        // Offer as many pending flits as credits allow, all at port 0.
        while let Some(f) = pending.pop() {
            if er.inject(0, f.clone()).is_err() {
                pending.push(f);
                break;
            }
        }
        delivered += er.step(|_, _| true).len();
        cycles += 1;
        assert!(cycles < 100_000, "router wedged");
    }
    cycles
}

/// Time to recover from a reordered frame, with and without NACKs.
fn reorder_recovery_ns(nack: bool) -> u64 {
    let cfg = LtlConfig {
        nack_enabled: nack,
        dcqcn: None,
        ..LtlConfig::default()
    };
    let a = NodeAddr::new(0, 0, 1);
    let b = NodeAddr::new(0, 0, 2);
    let mut tx = LtlEngine::new(a, cfg.clone());
    let mut rx = LtlEngine::new(b, cfg);
    let recv = rx.add_recv(a);
    let conn = tx.add_send(b, recv);
    tx.send_message(conn, 0, Bytes::from_static(b"one"))
        .unwrap();
    tx.send_message(conn, 0, Bytes::from_static(b"two"))
        .unwrap();
    let mut now = SimTime::ZERO;
    let Poll::Ready(first) = tx.poll(now) else {
        panic!("first frame is ready")
    };
    let Poll::Ready(second) = tx.poll(now) else {
        panic!("second frame is ready")
    };
    // Deliver out of order; frame one is "delayed in the network".
    now += SimDuration::from_micros(2);
    rx.on_packet(&second, now);
    // Drive both sides until the first message finally delivers.
    loop {
        now += SimDuration::from_micros(1);
        let mut progressed = false;
        while let Poll::Ready(pkt) = rx.poll(now) {
            tx.on_packet(&pkt, now);
            progressed = true;
        }
        tx.on_tick(now);
        while let Poll::Ready(pkt) = tx.poll(now) {
            if rx.on_packet(&pkt, now).len() > 0 {
                return now.as_nanos();
            }
            progressed = true;
        }
        if !progressed && now > SimTime::from_millis(1) {
            // Late arrival of the original frame (worst case path).
            if rx.on_packet(&first, now).len() > 0 {
                return now.as_nanos();
            }
        }
        assert!(now < SimTime::from_millis(10), "no recovery");
    }
}

/// Incast completion time with LTL on a lossless class vs a lossy class.
fn incast_completion_us(lossless: bool) -> f64 {
    let shape = catapult::calib::paper_shape(1);
    let mut fabric_cfg = catapult::calib::fabric_config(shape);
    if !lossless {
        fabric_cfg.tor.lossless_mask = 0;
        fabric_cfg.tor.queue_capacity_bytes = 40_000; // shallow lossy buffers
        fabric_cfg.agg.lossless_mask = 0;
        fabric_cfg.spine.lossless_mask = 0;
    }
    let mut cluster = ClusterBuilder::new(3)
        .fabric_config(&fabric_cfg)
        .shell_config(catapult::calib::shell_config())
        .build();
    let dst = NodeAddr::new(0, 0, 0);
    cluster.add_shell(dst);
    let senders: Vec<NodeAddr> = (1..9).map(|h| NodeAddr::new(0, 0, h)).collect();
    for &s in &senders {
        cluster.add_shell(s);
    }
    for &s in &senders {
        let (send, _, _, _) = cluster.connect_pair(s, dst);
        let sid = cluster.shell_id(s).expect("sender exists");
        for k in 0..10u64 {
            cluster.engine_mut().schedule(
                SimTime::from_nanos(k * 120),
                sid,
                Msg::LtlSend(LtlSend {
                    conn: send,
                    vc: 0,
                    payload: Bytes::from(vec![0u8; 1_300]),
                }),
            );
        }
    }
    cluster.run_to_idle();
    cluster.now().as_micros_f64()
}

#[test]
fn an_elastic_credit_pool_delivers_a_skewed_load_sooner() {
    let elastic = skewed_vc_cycles(CreditPolicy::Elastic);
    let fixed = skewed_vc_cycles(CreditPolicy::Static);
    assert!(
        elastic < fixed,
        "elastic {elastic} vs static {fixed} cycles"
    );
}

#[test]
fn a_nack_recovers_a_reordered_frame_sooner_than_the_timeout() {
    let with_nack = reorder_recovery_ns(true);
    let without = reorder_recovery_ns(false);
    assert!(
        with_nack < without,
        "NACK {with_nack} ns vs timeout-only {without} ns"
    );
}

#[test]
fn a_lossless_class_finishes_an_incast_sooner_than_a_lossy_one() {
    let pfc = incast_completion_us(true);
    let lossy = incast_completion_us(false);
    assert!(pfc < lossy, "lossless {pfc:.1} us vs lossy {lossy:.1} us");
}
