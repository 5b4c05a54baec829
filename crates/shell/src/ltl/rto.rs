//! Adaptive retransmission-timeout estimation (RFC 6298 style).
//!
//! The paper's LTL retransmits on a fixed, configured timeout — the right
//! call on a lossless intra-rack fabric where round trips sit within a
//! few microseconds of each other. The selective-repeat transport mode
//! instead smooths per-connection RTT samples into `SRTT`/`RTTVAR` and
//! derives the retransmission timeout from them, with exponential backoff
//! on repeated timeouts and hard clamping to a configured window, so the
//! same engine stays usable across a rack (µs round trips) and across
//! datacenters (hundreds of µs) without retransmit storms.
//!
//! All arithmetic is saturating integer math on nanoseconds: the
//! estimator is deterministic, never panics on degenerate samples (zero,
//! near-`u64::MAX`), and is differentially tested against a straight-line
//! wide-integer reference in `shell/tests/rto_properties.rs`.

use dcsim::SimDuration;

/// Smoothing clock granularity: the variance term never contributes less
/// than this, mirroring RFC 6298's `G`. 10 µs covers cross-pod spine
/// jitter, which the samples of back-to-back frames hide from `RTTVAR`.
const GRANULARITY_NS: u64 = 10_000;

/// Cap on the exponential-backoff shift; `min`/`max` clamping binds far
/// earlier, this only keeps the shift arithmetic trivially in range.
const MAX_BACKOFF_SHIFT: u32 = 16;

/// Per-connection RTT/RTT-variance estimator with adaptive, clamped,
/// exponentially backed-off retransmission timeout.
#[derive(Debug, Clone)]
pub struct RtoEstimator {
    /// Smoothed RTT, ns (RFC 6298 `SRTT`); meaningful once `samples > 0`.
    srtt_ns: u64,
    /// RTT variance, ns (RFC 6298 `RTTVAR`).
    rttvar_ns: u64,
    /// Accepted RTT samples so far.
    samples: u64,
    /// Consecutive-timeout backoff: the effective RTO doubles per step.
    backoff_shift: u32,
    /// RTO before the first sample arrives.
    initial: SimDuration,
    /// Lower clamp on the effective RTO.
    min_rto: SimDuration,
    /// Upper clamp on the effective RTO.
    max_rto: SimDuration,
}

impl RtoEstimator {
    /// A fresh estimator: `initial` is used until the first RTT sample,
    /// and every returned RTO is clamped to `[min_rto, max_rto]`.
    pub fn new(initial: SimDuration, min_rto: SimDuration, max_rto: SimDuration) -> RtoEstimator {
        RtoEstimator {
            srtt_ns: 0,
            rttvar_ns: 0,
            samples: 0,
            backoff_shift: 0,
            initial,
            min_rto,
            max_rto,
        }
    }

    /// Folds one RTT sample in (RFC 6298 α=1/8, β=1/4) and resets the
    /// timeout backoff: a fresh measurement proves the path is alive.
    /// Callers must honor Karn's rule and never sample retransmitted
    /// frames.
    pub fn on_sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_nanos();
        if self.samples == 0 {
            self.srtt_ns = r;
            self.rttvar_ns = r / 2;
        } else {
            let err = self.srtt_ns.abs_diff(r);
            // RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT - R|
            self.rttvar_ns = self.rttvar_ns - self.rttvar_ns / 4 + err / 4;
            // SRTT <- 7/8 SRTT + 1/8 R
            self.srtt_ns = self.srtt_ns - self.srtt_ns / 8 + r / 8;
        }
        self.samples = self.samples.saturating_add(1);
        self.backoff_shift = 0;
    }

    /// Doubles the effective RTO (clamped); call on a retransmission
    /// timeout so repeated losses back the sender off exponentially.
    pub fn on_timeout(&mut self) {
        self.backoff_shift = (self.backoff_shift + 1).min(MAX_BACKOFF_SHIFT);
    }

    /// The current retransmission timeout: `SRTT + max(G, 4·RTTVAR)`
    /// (or the configured initial value before any sample), doubled per
    /// unanswered timeout and clamped to `[min_rto, max_rto]`.
    pub fn rto(&self) -> SimDuration {
        let base_ns = if self.samples == 0 {
            self.initial.as_nanos()
        } else {
            self.srtt_ns
                .saturating_add(GRANULARITY_NS.max(self.rttvar_ns.saturating_mul(4)))
        };
        let backed = base_ns.saturating_mul(1u64 << self.backoff_shift);
        SimDuration::from_nanos(backed.clamp(self.min_rto.as_nanos(), self.max_rto.as_nanos()))
    }

    /// Smoothed RTT in ns, once at least one sample arrived.
    pub fn srtt_ns(&self) -> Option<u64> {
        (self.samples > 0).then_some(self.srtt_ns)
    }

    /// RTT variance in ns, once at least one sample arrived.
    pub fn rttvar_ns(&self) -> Option<u64> {
        (self.samples > 0).then_some(self.rttvar_ns)
    }

    /// Accepted RTT samples so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Current backoff shift (0 = no outstanding timeout backoff).
    pub fn backoff_shift(&self) -> u32 {
        self.backoff_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn est() -> RtoEstimator {
        RtoEstimator::new(us(50), us(10), us(2_000))
    }

    #[test]
    fn initial_rto_is_the_configured_timeout() {
        assert_eq!(est().rto(), us(50));
    }

    #[test]
    fn first_sample_seeds_srtt_and_var() {
        let mut e = est();
        e.on_sample(us(100));
        assert_eq!(e.srtt_ns(), Some(100_000));
        assert_eq!(e.rttvar_ns(), Some(50_000));
        // RTO = SRTT + 4*RTTVAR = 100 + 200 = 300us.
        assert_eq!(e.rto(), us(300));
    }

    #[test]
    fn steady_samples_converge_and_shrink_variance() {
        let mut e = est();
        for _ in 0..64 {
            e.on_sample(us(80));
        }
        let srtt = e.srtt_ns().unwrap();
        assert!((79_000..=81_000).contains(&srtt), "srtt {srtt}");
        // Constant RTT: variance decays toward zero, RTO toward SRTT+G.
        assert!(e.rttvar_ns().unwrap() < 2_000);
        assert!(e.rto() < us(95));
    }

    #[test]
    fn timeout_backoff_doubles_and_sample_resets() {
        let mut e = est();
        e.on_sample(us(50)); // RTO = 150us
        let base = e.rto();
        e.on_timeout();
        assert_eq!(e.rto(), base * 2u64);
        e.on_timeout();
        assert_eq!(e.rto(), base * 4u64);
        e.on_sample(us(50));
        assert_eq!(e.backoff_shift(), 0, "sample clears the backoff");
        // The repeat sample also shrinks the variance, so the RTO lands
        // at or below the pre-backoff value.
        assert!(e.rto() <= base, "rto {:?} vs base {base:?}", e.rto());
    }

    #[test]
    fn rto_clamps_to_bounds() {
        // A floor above G, so that it binds.
        let mut e = RtoEstimator::new(us(50), us(20), us(2_000));
        e.on_sample(SimDuration::from_nanos(1)); // tiny RTT
        assert_eq!(e.rto(), us(20), "min clamp");
        for _ in 0..40 {
            e.on_timeout(); // shift saturates, no overflow
        }
        assert_eq!(e.rto(), us(2_000), "max clamp");
    }

    #[test]
    fn degenerate_samples_never_overflow() {
        let mut e = est();
        e.on_sample(SimDuration::from_nanos(u64::MAX));
        e.on_sample(SimDuration::from_nanos(0));
        e.on_sample(SimDuration::from_nanos(u64::MAX));
        for _ in 0..64 {
            e.on_timeout();
        }
        let rto = e.rto();
        assert!(rto >= us(10) && rto <= us(2_000));
    }
}
