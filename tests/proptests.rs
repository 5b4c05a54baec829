//! Property-based tests on the core data structures and protocol
//! invariants, spanning crates.

use apps::crypto::{cbc_sha1_open, cbc_sha1_seal, Aes, AesGcm, Sha1};
use apps::ranking::{min_cover_window, Document, FfuBank, Query};
use bytes::Bytes;
use catapult::telemetry::Histogram;
use dcnet::{NodeAddr, Packet, TrafficClass};
use dcsim::{Component, ComponentId, Context, Engine, SimDuration, SimTime};
use proptest::prelude::*;
use shell::ltl::{FrameKind, LtlFrame};
use shell::{CreditPolicy, ElasticRouter, ErConfig, Flit};

proptest! {
    #[test]
    fn sim_time_add_sub_roundtrip(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(base);
        let d = SimDuration::from_nanos(delta);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded(mut xs in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let rec: Histogram = xs.iter().copied().collect();
        let p50 = rec.percentile(50.0).unwrap();
        let p99 = rec.percentile(99.0).unwrap();
        let p100 = rec.percentile(100.0).unwrap();
        prop_assert!(p50 <= p99 && p99 <= p100);
        xs.sort_unstable();
        prop_assert_eq!(p100, *xs.last().unwrap());
        prop_assert!(rec.percentile(0.0001).unwrap() >= *xs.first().unwrap());
    }

    /// A snapshot's Welford moments match the naive two-pass computation.
    #[test]
    fn snapshot_moments_match_naive(xs in proptest::collection::vec(0u64..2_000_000, 2..200)) {
        let snap = xs.iter().copied().collect::<Histogram>().snapshot();
        let n = xs.len() as f64;
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        prop_assert_eq!(snap.count, xs.len() as u64);
        prop_assert!((snap.mean - mean).abs() < 1e-6 * mean.max(1.0));
        prop_assert!((snap.std_dev.powi(2) - var).abs() < 1e-4 * var.max(1.0));
    }

    #[test]
    fn packet_wire_roundtrip(
        pod in 0u16..4096, tor in 0u16..1024, host in 0u16..256,
        sp in 0u16.., dp in 0u16..,
        class in 0u8..8,
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
    ) {
        let pkt = Packet::new(
            NodeAddr::new(pod, tor, host),
            NodeAddr::new(tor % 256, pod % 256, host % 24),
            sp, dp,
            TrafficClass::new(class),
            Bytes::from(payload),
        );
        let decoded = Packet::decode_wire(&pkt.encode_wire()).unwrap();
        prop_assert_eq!(decoded.src, pkt.src);
        prop_assert_eq!(decoded.dst, pkt.dst);
        prop_assert_eq!(decoded.src_port, pkt.src_port);
        prop_assert_eq!(decoded.dst_port, pkt.dst_port);
        prop_assert_eq!(decoded.class, pkt.class);
        prop_assert_eq!(decoded.payload, pkt.payload);
    }

    #[test]
    fn ltl_frame_roundtrip(
        kind in 0u8..4,
        src_conn in any::<u16>(), dst_conn in any::<u16>(),
        seq in any::<u32>(), msg_id in any::<u32>(),
        last in any::<bool>(), vc in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1000),
    ) {
        let kind = match kind {
            0 => FrameKind::Data,
            1 => FrameKind::Ack,
            2 => FrameKind::Nack,
            _ => FrameKind::Cnp,
        };
        let frame = LtlFrame {
            kind, src_conn, dst_conn, seq, msg_id,
            last_frag: last, vc,
            payload: Bytes::from(payload),
        };
        prop_assert_eq!(LtlFrame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn aes_roundtrips_any_block(key in proptest::array::uniform16(any::<u8>()), block in proptest::array::uniform16(any::<u8>())) {
        let aes = Aes::new_128(&key);
        let mut b = block;
        aes.encrypt_block(&mut b);
        aes.decrypt_block(&mut b);
        prop_assert_eq!(b, block);
    }

    #[test]
    fn gcm_roundtrips_any_payload(
        key in proptest::array::uniform16(any::<u8>()),
        iv in proptest::array::uniform12(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let gcm = AesGcm::new_128(&key);
        let mut buf = data.clone();
        let tag = gcm.seal(&iv, &aad, &mut buf);
        gcm.open(&iv, &aad, &mut buf, &tag).unwrap();
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn gcm_detects_any_single_bitflip(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let gcm = AesGcm::new_128(b"0123456789abcdef");
        let iv = [9u8; 12];
        let mut buf = data;
        let tag = gcm.seal(&iv, &[], &mut buf);
        let idx = flip_byte % buf.len();
        buf[idx] ^= 1 << flip_bit;
        prop_assert!(gcm.open(&iv, &[], &mut buf, &tag).is_err());
    }

    #[test]
    fn cbc_sha1_record_roundtrips(
        key in proptest::array::uniform16(any::<u8>()),
        iv in proptest::array::uniform16(any::<u8>()),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let aes = Aes::new_128(&key);
        let record = cbc_sha1_seal(&aes, &key, &iv, &data);
        prop_assert_eq!(cbc_sha1_open(&aes, &key, &iv, &record).unwrap(), data);
    }

    #[test]
    fn sha1_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        split in any::<usize>(),
    ) {
        let oneshot = Sha1::digest(&data);
        let cut = if data.is_empty() { 0 } else { split % data.len() };
        let mut h = Sha1::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn ffu_term_count_matches_naive(
        terms in proptest::collection::vec(0u32..50, 1..4),
        tokens in proptest::collection::vec(0u32..50, 0..300),
    ) {
        let query = Query { terms: terms.clone() };
        let doc = Document { tokens: tokens.clone() };
        let mut bank = FfuBank::for_query(&query);
        let features = bank.compute(&doc);
        for (i, &t) in terms.iter().enumerate() {
            let expected = tokens.iter().filter(|&&x| x == t).count() as f32;
            prop_assert_eq!(features[2 * i], expected);
        }
    }

    #[test]
    fn min_window_contains_all_terms(
        terms in proptest::collection::vec(0u32..20, 1..4),
        tokens in proptest::collection::vec(0u32..20, 0..200),
    ) {
        let query = Query { terms: terms.clone() };
        let doc = Document { tokens: tokens.clone() };
        match min_cover_window(&query, &doc) {
            Some(w) => {
                // Verify some window of length w covers all query terms.
                prop_assert!(w <= tokens.len() || terms.is_empty());
                let ok = (0..=tokens.len().saturating_sub(w)).any(|s| {
                    terms.iter().all(|t| tokens[s..s + w].contains(t))
                }) || w == 0;
                prop_assert!(ok, "no window of {} covers {:?}", w, terms);
            }
            None => {
                prop_assert!(terms.iter().any(|t| !tokens.contains(t)));
            }
        }
    }

    #[test]
    fn elastic_router_conserves_flits(
        injections in proptest::collection::vec((0usize..4, 0usize..4, 0usize..2), 0..64),
    ) {
        let mut er = ElasticRouter::new(ErConfig {
            ports: 4,
            vcs: 2,
            credits_per_vc: 4,
            shared_credits: 8,
            policy: CreditPolicy::Elastic,
            flit_bytes: 32,
        });
        let mut accepted = 0u64;
        for (i, &(port, out, vc)) in injections.iter().enumerate() {
            let flit = Flit {
                out_port: out,
                vc,
                tail: true,
                msg_id: i as u64,
                flit_seq: 0,
            };
            if er.inject(port, flit).is_ok() {
                accepted += 1;
            }
        }
        let drained = er.drain(10_000);
        prop_assert_eq!(drained.len() as u64, accepted);
        prop_assert_eq!(er.occupancy(), 0);
        // Every accepted flit leaves on its requested output port.
        for (port, flit) in &drained {
            prop_assert_eq!(*port, flit.out_port);
        }
    }
}

/// Builds a scalar JSON value from a generated tag and payloads.
fn scalar(tag: u8, n: u64, x: f64, s: &str) -> serde::Value {
    use serde::Value;
    match tag % 6 {
        0 => Value::Null,
        1 => Value::Bool(n.is_multiple_of(2)),
        2 => Value::U64(n),
        // Strictly negative: the parser types non-negative integers as
        // U64, so only negative values reparse as I64.
        3 => Value::I64(-1 - (n / 3) as i64),
        4 => Value::F64(x),
        _ => Value::Str(s.to_string()),
    }
}

proptest! {
    /// Anything the vendored serializer emits, the telemetry validator
    /// parses back to the identical value tree — compact and pretty,
    /// scalars, arrays, and objects with tricky keys. This pins the two
    /// sides of the JSON contract to each other.
    #[test]
    fn serializer_output_reparses_identically(
        tags in proptest::collection::vec(any::<u8>(), 1..12),
        nums in proptest::collection::vec(any::<u64>(), 12),
        floats in proptest::collection::vec(-1e9f64..1e9, 12),
        raw_strings in proptest::collection::vec(
            proptest::collection::vec(0usize..12, 0..12),
            12,
        ),
        depth_tag in 0u8..3,
    ) {
        use serde::Value;
        // Escape-heavy character palette: quotes, backslashes, control
        // characters, and multi-byte unicode.
        const PALETTE: [char; 12] =
            ['a', 'z', '"', '\\', '\u{8}', '\t', '\n', '\r', ' ', '/', 'é', '\u{1F600}'];
        let strings: Vec<String> = raw_strings
            .iter()
            .map(|idxs| idxs.iter().map(|&i| PALETTE[i]).collect())
            .collect();
        let leaves: Vec<Value> = tags
            .iter()
            .enumerate()
            .map(|(i, &t)| scalar(t, nums[i], floats[i], &strings[i]))
            .collect();
        // Bounded nesting built by hand (the vendored proptest has no
        // recursive strategies): leaves -> container -> root object.
        let inner = match depth_tag {
            0 => Value::Array(leaves.clone()),
            1 => Value::Object(
                leaves
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (format!("k{i}"), v.clone()))
                    .collect(),
            ),
            _ => Value::Array(vec![
                Value::Array(leaves.clone()),
                Value::Object(vec![("nested \" key".into(), leaves[0].clone())]),
            ]),
        };
        let root = Value::Object(vec![
            ("payload".into(), inner),
            ("count".into(), Value::U64(leaves.len() as u64)),
        ]);
        let compact = serde_json::to_string(&root).unwrap();
        let pretty = serde_json::to_string_pretty(&root).unwrap();
        prop_assert_eq!(&telemetry::json::parse(&compact).unwrap(), &root);
        prop_assert_eq!(&telemetry::json::parse(&pretty).unwrap(), &root);
    }
}

/// Records every delivery with its timestamp; message payloads carry the
/// global scheduling order so FIFO tie-breaking is checkable.
#[derive(Debug, Default)]
struct DeliveryLog {
    seen: Vec<(u64, u32)>,
}

impl Component<u32> for DeliveryLog {
    fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
        self.seen.push((ctx.now().as_nanos(), msg));
    }
}

/// Schedules bursts of events *from inside the run*, so the calendar
/// queue sees pushes while it is draining — the regime where a retune
/// moves events between buckets with a live cursor.
struct WaveFeeder {
    log: ComponentId,
    waves: Vec<Vec<u64>>,
    next_wave: usize,
    sent: u32,
}

impl Component<u32> for WaveFeeder {
    fn on_message(&mut self, _msg: u32, ctx: &mut Context<'_, u32>) {
        if let Some(wave) = self.waves.get(self.next_wave) {
            self.next_wave += 1;
            for &offset in wave {
                ctx.send_after(SimDuration::from_nanos(offset), self.log, self.sent);
                self.sent += 1;
            }
            // Re-arm between waves at an odd stride so wave boundaries
            // interleave with deliveries rather than aligning to them.
            ctx.send_to_self_after(SimDuration::from_nanos(997), 0);
        }
    }
}

fn assert_log_ordered(seen: &[(u64, u32)], expected: usize) -> Result<(), String> {
    if seen.len() != expected {
        return Err(format!("delivered {} of {expected} events", seen.len()));
    }
    for w in seen.windows(2) {
        if w[0].0 > w[1].0 {
            return Err(format!("time went backwards: {:?} then {:?}", w[0], w[1]));
        }
        if w[0].0 == w[1].0 && w[0].1 >= w[1].1 {
            return Err(format!("FIFO violated on tie: {:?} then {:?}", w[0], w[1]));
        }
    }
    Ok(())
}

// Calendar-queue stress properties. Each case schedules thousands of
// events (enough to cross the queue's retune interval several times), so
// the case count is kept deliberately small.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Events far beyond the wheel's current year (the overflow heap)
    /// and events straddling the initial wheel span all deliver in
    /// timestamp order with FIFO tie-breaking, regardless of the
    /// interleaving they were pushed in.
    #[test]
    fn calendar_queue_orders_across_the_year_boundary(
        near in proptest::collection::vec(0u64..40_000, 1..120),
        far in proptest::collection::vec(0u64..1_000_000, 1..60),
    ) {
        let mut e: Engine<u32> = Engine::new(7);
        let log = e.add_component(DeliveryLog::default());
        let mut order = 0u32;
        // Interleave near and far pushes so wheel and overflow-heap
        // inserts alternate.
        let far_base = SimTime::from_secs(100).as_nanos();
        let mut near_it = near.iter();
        let mut far_it = far.iter();
        loop {
            match (near_it.next(), far_it.next()) {
                (None, None) => break,
                (n, f) => {
                    if let Some(&t) = n {
                        e.schedule(SimTime::from_nanos(t), log, order);
                        order += 1;
                    }
                    if let Some(&t) = f {
                        e.schedule(SimTime::from_nanos(far_base + t), log, order);
                        order += 1;
                    }
                }
            }
        }
        e.run_to_idle();
        let seen = &e.component::<DeliveryLog>(log).unwrap().seen;
        assert_log_ordered(seen, near.len() + far.len()).unwrap();
    }

    /// Waves of pushes landing mid-drain — enough volume to force the
    /// adaptive retune to resize the bucket wheel while events are in
    /// flight — never reorder or lose an event.
    #[test]
    fn calendar_queue_retune_mid_drain_preserves_order(
        waves in proptest::collection::vec(
            proptest::collection::vec(0u64..3_000_000, 1_200..1_700),
            3..6,
        ),
    ) {
        let total: usize = waves.iter().map(Vec::len).sum();
        let mut e: Engine<u32> = Engine::new(11);
        let log = e.add_component(DeliveryLog::default());
        let feeder = e.add_component(WaveFeeder {
            log,
            waves,
            next_wave: 0,
            sent: 0,
        });
        e.schedule(SimTime::ZERO, feeder, 0);
        e.run_to_idle();
        let seen = &e.component::<DeliveryLog>(log).unwrap().seen;
        assert_log_ordered(seen, total).unwrap();
    }
}

/// Deterministic regression for the exact wheel-year edge: events one
/// slot inside, exactly on, and one slot past the initial wheel span
/// (64 buckets x 256 ns), pushed both before and during the drain.
#[test]
fn calendar_queue_year_edge_events_deliver_in_order() {
    let initial_span = 64 * 256u64;
    let mut e: Engine<u32> = Engine::new(3);
    let log = e.add_component(DeliveryLog::default());
    let edge_times = [
        initial_span + 1,
        initial_span,
        initial_span - 1,
        2 * initial_span,
        1,
        0,
    ];
    for (order, &t) in edge_times.iter().enumerate() {
        e.schedule(SimTime::from_nanos(t), log, order as u32);
    }
    // A second batch lands mid-drain, re-straddling the (advanced) year.
    let feeder = e.add_component(WaveFeeder {
        log,
        waves: vec![vec![initial_span - 2, initial_span * 3, 5, 0]],
        next_wave: 0,
        sent: 100,
    });
    e.schedule(SimTime::from_nanos(2), feeder, 0);
    e.run_to_idle();
    let seen = &e.component::<DeliveryLog>(log).unwrap().seen;
    assert_eq!(seen.len(), 10);
    let times: Vec<u64> = seen.iter().map(|&(t, _)| t).collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted, "deliveries out of timestamp order");
}
