//! Point-to-point link timing.
//!
//! A [`LinkTx`] models the egress half of a full-duplex link: frames are
//! serialized one at a time at the line rate, then propagate to the far end
//! after a fixed delay. Endpoints and switch ports each own one `LinkTx`
//! per direction, which is what creates serialization queueing in the
//! simulation.

use dcsim::{Context, SimDuration, SimTime, TimerKey};

/// Static parameters of one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Line rate in gigabits per second (40.0 for the paper's QSFP+ links).
    pub rate_gbps: f64,
    /// One-way propagation + PHY latency.
    pub propagation: SimDuration,
}

impl LinkParams {
    /// A 40 GbE link with the given propagation delay.
    pub fn gbe40(propagation: SimDuration) -> Self {
        LinkParams {
            rate_gbps: 40.0,
            propagation,
        }
    }

    /// Time to serialize `bytes` onto this link.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / (self.rate_gbps * 1e9))
    }
}

impl Default for LinkParams {
    /// 40 GbE with 100 ns propagation (a few metres of fibre plus PHY).
    fn default() -> Self {
        LinkParams::gbe40(SimDuration::from_nanos(100))
    }
}

/// The transmit side of one link direction.
#[derive(Debug, Clone)]
pub struct LinkTx {
    params: LinkParams,
    busy_until: SimTime,
    bytes_sent: u64,
    frames_sent: u64,
}

/// When a transmitted frame leaves the serializer and when it arrives at
/// the far end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxTiming {
    /// Serialization complete; the next frame may start then.
    pub departs: SimTime,
    /// Frame fully received by the peer.
    pub arrives: SimTime,
}

impl LinkTx {
    /// Creates an idle transmitter.
    pub fn new(params: LinkParams) -> Self {
        LinkTx {
            params,
            busy_until: SimTime::ZERO,
            bytes_sent: 0,
            frames_sent: 0,
        }
    }

    /// The link parameters.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// Queues `bytes` for transmission at `now`, returning its timing.
    /// If the serializer is busy the frame starts when it frees up.
    pub fn transmit(&mut self, now: SimTime, bytes: u32) -> TxTiming {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let departs = start + self.params.serialization(bytes);
        self.busy_until = departs;
        self.bytes_sent += bytes as u64;
        self.frames_sent += 1;
        TxTiming {
            departs,
            arrives: departs + self.params.propagation,
        }
    }

    /// Whether the serializer would be free at `now`.
    pub fn idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// When the serializer frees up.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total bytes handed to this transmitter.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total frames handed to this transmitter.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }
}

/// The serialization-done timer of the frame a [`LinkTx`] has on the
/// wire, *deferred*: starting a transmission only reserves the timer's
/// position in the event order, and the event itself is enqueued only
/// once its handler will have something to do — a frame waiting for the
/// wire. On near-empty queues that is rarely, and the wire going idle
/// then costs no event at all; until it does, "is the wire busy?" is
/// answered by comparing the reserved position with the event being
/// dispatched, which is exactly what the fired-or-not state of an eager
/// timer would say.
///
/// The owner's timer handler must call [`FreeTimer::clear`] before it
/// looks at the wire again.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FreeTimer {
    /// No transmission this timer still has to end.
    Idle,
    /// A transmission was started; its timer's position is reserved and
    /// nothing is enqueued. Once that position has passed this means the
    /// same as `Idle`.
    Reserved(TimerKey),
    /// The timer is in the event queue and will fire when the wire frees.
    Armed,
}

impl FreeTimer {
    /// Whether the frame last handed to `tx` still occupies the wire, as
    /// the event order sees it: its free-timer has not fired yet.
    pub(crate) fn wire_busy<M>(&self, tx: &LinkTx, ctx: &Context<'_, M>) -> bool {
        match *self {
            FreeTimer::Idle => false,
            FreeTimer::Reserved(key) => ctx.timer_is_ahead(tx.busy_until(), key),
            FreeTimer::Armed => true,
        }
    }

    /// Reserves the free-timer of the transmission just started on the
    /// link. Call where an eager `timer_after(departs)` would stand, so
    /// the same tie-break key is consumed.
    pub(crate) fn reserve<M>(&mut self, ctx: &mut Context<'_, M>) {
        *self = FreeTimer::Reserved(ctx.reserve_timer());
    }

    /// Makes sure the timer fires (with `token`) if the wire is busy: the
    /// caller has work waiting for it. Does nothing on an idle wire or an
    /// already armed timer.
    pub(crate) fn arm<M>(&mut self, tx: &LinkTx, token: u64, ctx: &mut Context<'_, M>) {
        if let FreeTimer::Reserved(key) = *self {
            if ctx.timer_is_ahead(tx.busy_until(), key) {
                ctx.arm_timer(tx.busy_until(), key, token);
                *self = FreeTimer::Armed;
            }
        }
    }

    /// Forgets the transmission: the armed timer has fired, or the owner
    /// was reset with a frame on the wire.
    pub(crate) fn clear(&mut self) {
        *self = FreeTimer::Idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_40g() {
        let p = LinkParams::gbe40(SimDuration::ZERO);
        // 1500 bytes at 40 Gb/s = 300 ns
        assert_eq!(p.serialization(1500).as_nanos(), 300);
        // 64 bytes = 12.8 ns -> rounds to 13
        assert_eq!(p.serialization(64).as_nanos(), 13);
    }

    #[test]
    fn idle_link_timing() {
        let mut tx = LinkTx::new(LinkParams::gbe40(SimDuration::from_nanos(100)));
        let t = tx.transmit(SimTime::from_nanos(1000), 1500);
        assert_eq!(t.departs.as_nanos(), 1300);
        assert_eq!(t.arrives.as_nanos(), 1400);
    }

    #[test]
    fn back_to_back_frames_serialize_sequentially() {
        let mut tx = LinkTx::new(LinkParams::gbe40(SimDuration::from_nanos(100)));
        let t1 = tx.transmit(SimTime::ZERO, 1500);
        let t2 = tx.transmit(SimTime::ZERO, 1500);
        assert_eq!(t1.departs.as_nanos(), 300);
        assert_eq!(t2.departs.as_nanos(), 600);
        assert_eq!(t2.arrives.as_nanos(), 700);
        assert_eq!(tx.frames_sent(), 2);
        assert_eq!(tx.bytes_sent(), 3000);
    }

    #[test]
    fn gap_resets_busy() {
        let mut tx = LinkTx::new(LinkParams::gbe40(SimDuration::ZERO));
        tx.transmit(SimTime::ZERO, 1500);
        assert!(!tx.idle_at(SimTime::from_nanos(200)));
        assert!(tx.idle_at(SimTime::from_nanos(300)));
        let t = tx.transmit(SimTime::from_micros(1), 1500);
        assert_eq!(t.departs.as_nanos(), 1300);
    }

    #[test]
    fn throughput_matches_line_rate() {
        // Saturate the link for 1 ms and check goodput == 40 Gb/s.
        let mut tx = LinkTx::new(LinkParams::gbe40(SimDuration::ZERO));
        let mut sent = 0u64;
        while tx.busy_until() < SimTime::from_millis(1) {
            tx.transmit(SimTime::ZERO, 1500);
            sent += 1500;
        }
        let gbps = sent as f64 * 8.0 / 1e-3 / 1e9;
        assert!((gbps - 40.0).abs() < 0.5, "gbps {gbps}");
    }
}
