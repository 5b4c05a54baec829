//! Differential property tests for the adaptive RTO estimator.
//!
//! [`RtoEstimator`] runs saturating `u64` nanosecond arithmetic for the
//! hot path; here every operation sequence is replayed against a
//! straight-line `u128` reference that writes the RFC 6298 recurrences
//! out plainly (no saturation tricks, saturation expressed as explicit
//! `min` against `u64::MAX`). The two must agree *exactly* — on the RTO,
//! the smoothed RTT, the variance and the backoff shift — for arbitrary
//! interleavings of samples and timeouts, including degenerate samples
//! at zero and near `u64::MAX`.

use dcsim::SimDuration;
use proptest::prelude::*;
use shell::ltl::RtoEstimator;

const GRANULARITY_NS: u64 = 10_000;
const MAX_BACKOFF_SHIFT: u32 = 16;

/// One step applied to both the estimator and the reference.
#[derive(Debug, Clone, Copy)]
enum Op {
    Sample(u64),
    Timeout,
}

/// Decodes a generated `(tag, value)` pair: one in four ops is a
/// timeout, the rest are RTT samples.
fn decode(tag: u8, value: u64) -> Op {
    if tag.is_multiple_of(4) {
        Op::Timeout
    } else {
        Op::Sample(value)
    }
}

/// The straight-line reference: RFC 6298 in `u128`, no state beyond the
/// four quantities the RFC names.
#[derive(Debug, Clone)]
struct RefModel {
    srtt: u128,
    rttvar: u128,
    samples: u64,
    shift: u32,
    initial_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl RefModel {
    fn new(initial_ns: u64, min_ns: u64, max_ns: u64) -> RefModel {
        RefModel {
            srtt: 0,
            rttvar: 0,
            samples: 0,
            shift: 0,
            initial_ns,
            min_ns,
            max_ns,
        }
    }

    fn on_sample(&mut self, r_ns: u64) {
        let r = r_ns as u128;
        if self.samples == 0 {
            self.srtt = r;
            self.rttvar = r / 2;
        } else {
            let err = self.srtt.abs_diff(r);
            self.rttvar = self.rttvar - self.rttvar / 4 + err / 4;
            self.srtt = self.srtt - self.srtt / 8 + r / 8;
        }
        self.samples = self.samples.saturating_add(1);
        self.shift = 0;
    }

    fn on_timeout(&mut self) {
        self.shift = (self.shift + 1).min(MAX_BACKOFF_SHIFT);
    }

    fn rto_ns(&self) -> u64 {
        let cap = u64::MAX as u128;
        let base = if self.samples == 0 {
            self.initial_ns as u128
        } else {
            let var4 = (self.rttvar * 4).min(cap);
            (self.srtt + (GRANULARITY_NS as u128).max(var4)).min(cap)
        };
        let backed = (base << self.shift).min(cap);
        (backed as u64).clamp(self.min_ns, self.max_ns)
    }
}

/// RTT samples spanning zero, the realistic µs-to-ms band, and
/// degenerate near-`u64::MAX` values that must not panic.
fn sample_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => 0u64..2_000,
        6 => 1_000u64..10_000_000,
        1 => (u64::MAX - 1_000)..u64::MAX,
        1 => Just(u64::MAX),
        1 => any::<u64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every single step, estimator and reference agree exactly on
    /// all four observable quantities.
    #[test]
    fn estimator_matches_straight_line_reference(
        initial in 1u64..1_000_000_000,
        min in 0u64..100_000_000,
        span in 0u64..2_000_000_000,
        raw_ops in proptest::collection::vec((any::<u8>(), sample_strategy()), 1..64),
    ) {
        let max = min.saturating_add(span);
        let mut est = RtoEstimator::new(
            SimDuration::from_nanos(initial),
            SimDuration::from_nanos(min),
            SimDuration::from_nanos(max),
        );
        let mut reference = RefModel::new(initial, min, max);
        prop_assert_eq!(est.rto().as_nanos(), reference.rto_ns());
        for (tag, value) in raw_ops {
            match decode(tag, value) {
                Op::Sample(r) => {
                    est.on_sample(SimDuration::from_nanos(r));
                    reference.on_sample(r);
                }
                Op::Timeout => {
                    est.on_timeout();
                    reference.on_timeout();
                }
            }
            prop_assert_eq!(est.rto().as_nanos(), reference.rto_ns());
            prop_assert_eq!(
                est.srtt_ns().map(u128::from),
                (reference.samples > 0).then_some(reference.srtt)
            );
            prop_assert_eq!(
                est.rttvar_ns().map(u128::from),
                (reference.samples > 0).then_some(reference.rttvar)
            );
            prop_assert_eq!(est.backoff_shift(), reference.shift);
            prop_assert_eq!(est.samples(), reference.samples);
        }
    }

    /// The clamp is inviolable: for any bounds and any history the RTO
    /// stays inside `[min, max]`.
    #[test]
    fn rto_always_within_bounds(
        initial in 1u64..1_000_000_000,
        min in 0u64..100_000_000,
        span in 0u64..2_000_000_000,
        raw_ops in proptest::collection::vec((any::<u8>(), sample_strategy()), 0..64),
    ) {
        let max = min.saturating_add(span);
        let mut est = RtoEstimator::new(
            SimDuration::from_nanos(initial),
            SimDuration::from_nanos(min),
            SimDuration::from_nanos(max),
        );
        for (tag, value) in raw_ops {
            match decode(tag, value) {
                Op::Sample(r) => est.on_sample(SimDuration::from_nanos(r)),
                Op::Timeout => est.on_timeout(),
            }
            let rto = est.rto().as_nanos();
            prop_assert!(rto >= min && rto <= max, "rto {} outside [{}, {}]", rto, min, max);
        }
    }

    /// Backoff only ever raises the RTO, and the next valid sample drops
    /// the shift straight back to zero (the path is alive again).
    #[test]
    fn backoff_is_monotone_until_a_sample_resets_it(
        initial in 1u64..1_000_000_000,
        min in 0u64..100_000_000,
        span in 0u64..2_000_000_000,
        warmup in proptest::collection::vec(sample_strategy(), 0..8),
        timeouts in 1usize..24,
        reset in sample_strategy(),
    ) {
        let max = min.saturating_add(span);
        let mut est = RtoEstimator::new(
            SimDuration::from_nanos(initial),
            SimDuration::from_nanos(min),
            SimDuration::from_nanos(max),
        );
        for r in warmup {
            est.on_sample(SimDuration::from_nanos(r));
        }
        let mut prev = est.rto();
        for _ in 0..timeouts {
            est.on_timeout();
            prop_assert!(est.rto() >= prev, "backoff lowered the rto");
            prev = est.rto();
        }
        prop_assert!(est.backoff_shift() > 0);
        est.on_sample(SimDuration::from_nanos(reset));
        prop_assert_eq!(est.backoff_shift(), 0);
    }
}
