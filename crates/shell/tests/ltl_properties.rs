//! Property-based adversarial testing of the LTL protocol engine: under
//! arbitrary loss, duplication, reordering and delay of individual frames,
//! every message must still be delivered exactly once, in order, with the
//! unacknowledged frame store eventually draining.

use bytes::Bytes;
use dcnet::{NodeAddr, Packet};
use dcsim::{SimDuration, SimTime};
use proptest::prelude::*;
use shell::ltl::{LtlConfig, LtlEngine, LtlEvent, Poll};

const A: NodeAddr = NodeAddr {
    pod: 0,
    tor: 0,
    host: 1,
};
const B: NodeAddr = NodeAddr {
    pod: 0,
    tor: 0,
    host: 2,
};

/// What the adversarial network does to each transmitted frame.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
    /// Hold the frame and release it later (reorder).
    Delay,
}

fn fate_strategy() -> impl Strategy<Value = Fate> {
    prop_oneof![
        4 => Just(Fate::Deliver),
        1 => Just(Fate::Drop),
        1 => Just(Fate::Duplicate),
        1 => Just(Fate::Delay),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An adversarial network cannot break exactly-once in-order delivery.
    #[test]
    fn reliable_delivery_under_adversarial_network(
        messages in proptest::collection::vec(1usize..4_000, 1..8),
        fates in proptest::collection::vec(fate_strategy(), 256),
        ack_fates in proptest::collection::vec(fate_strategy(), 256),
    ) {
        let cfg = LtlConfig::default().without_dcqcn();
        let mut tx = LtlEngine::new(A, cfg.clone());
        let mut rx = LtlEngine::new(B, cfg);
        let recv = rx.add_recv(A);
        let conn = tx.add_send(B, recv);

        let sent: Vec<Vec<u8>> = messages
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![i as u8 + 1; len])
            .collect();
        for m in &sent {
            tx.send_message(conn, 0, Bytes::from(m.clone())).unwrap();
        }

        let mut now = SimTime::ZERO;
        let mut delivered: Vec<Bytes> = Vec::new();
        let mut delayed_frames: Vec<Packet> = Vec::new();
        let mut fate_idx = 0usize;
        let mut ack_idx = 0usize;
        let next_fate = |idx: &mut usize, table: &[Fate]| {
            let f = table[*idx % table.len()];
            *idx += 1;
            f
        };

        // Drive both engines with ticks until everything lands (bounded).
        for round in 0..100_000u64 {
            now += SimDuration::from_micros(7);
            // Data direction with fault injection.
            while let Poll::Ready(pkt) = tx.poll(now) {
                match next_fate(&mut fate_idx, &fates) {
                    Fate::Deliver => {
                        for ev in rx.on_packet(&pkt, now) {
                            if let LtlEvent::Deliver { payload, .. } = ev {
                                delivered.push(payload);
                            }
                        }
                    }
                    Fate::Drop => {}
                    Fate::Duplicate => {
                        for _ in 0..2 {
                            for ev in rx.on_packet(&pkt, now) {
                                if let LtlEvent::Deliver { payload, .. } = ev {
                                    delivered.push(payload);
                                }
                            }
                        }
                    }
                    Fate::Delay => delayed_frames.push(pkt),
                }
            }
            // Release one delayed frame per round (out of order).
            if round % 3 == 0 {
                if let Some(pkt) = delayed_frames.pop() {
                    for ev in rx.on_packet(&pkt, now) {
                        if let LtlEvent::Deliver { payload, .. } = ev {
                            delivered.push(payload);
                        }
                    }
                }
            }
            // ACK direction with fault injection (no duplication harm).
            while let Poll::Ready(ack) = rx.poll(now) {
                match next_fate(&mut ack_idx, &ack_fates) {
                    Fate::Drop => {}
                    Fate::Delay | Fate::Deliver => {
                        tx.on_packet(&ack, now);
                    }
                    Fate::Duplicate => {
                        tx.on_packet(&ack, now);
                        tx.on_packet(&ack, now);
                    }
                }
            }
            // A pathological drop pattern can legitimately exhaust the
            // retry budget: the engine then declares the connection failed
            // (that is the paper's failing-node detection). Delivery up to
            // that point must still be exactly-once and in order.
            let failed = tx.on_tick(now).len() > 0;
            if failed || (delivered.len() == sent.len() && tx.in_flight() == 0) {
                if failed {
                    prop_assert!(tx.stats_view().conn_failures > 0);
                }
                break;
            }
            let _ = round;
        }

        prop_assert!(
            delivered.len() <= sent.len(),
            "duplicate delivery (stats tx {:?} rx {:?})",
            tx.stats_view(),
            rx.stats_view()
        );
        for (got, want) in delivered.iter().zip(&sent) {
            prop_assert_eq!(got.as_ref(), want.as_slice(), "in-order delivery violated");
        }
        if tx.stats_view().conn_failures == 0 {
            prop_assert_eq!(
                delivered.len(),
                sent.len(),
                "surviving connection must deliver everything (tx {:?} rx {:?})",
                tx.stats_view(),
                rx.stats_view()
            );
            prop_assert_eq!(tx.in_flight(), 0, "unacked store must drain");
        }
    }
}
