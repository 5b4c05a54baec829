//! Multi-core service model.
//!
//! A [`CorePool`] models `c` identical cores serving jobs FIFO: each
//! arriving job is assigned to the earliest-available core, which is the
//! exact discipline of an M/G/c queue when jobs are assigned in arrival
//! order. The ranking service (software mode and the software portion of
//! FPGA mode) and the crypto CPU-cost comparisons are built on it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dcsim::{SimDuration, SimTime};

/// A pool of identical cores with FIFO job assignment.
///
/// # Examples
///
/// ```
/// use dcsim::{SimDuration, SimTime};
/// use host::CorePool;
///
/// let mut pool = CorePool::new(2);
/// let (s1, _) = pool.assign(SimTime::ZERO, SimDuration::from_millis(10));
/// let (s2, _) = pool.assign(SimTime::ZERO, SimDuration::from_millis(10));
/// let (s3, _) = pool.assign(SimTime::ZERO, SimDuration::from_millis(10));
/// assert_eq!(s1, SimTime::ZERO);
/// assert_eq!(s2, SimTime::ZERO);
/// assert_eq!(s3, SimTime::from_millis(10)); // queued behind the first two
/// ```
#[derive(Debug, Clone)]
pub struct CorePool {
    /// Min-heap of core free times.
    free_at: BinaryHeap<Reverse<SimTime>>,
    cores: usize,
    busy_time: SimDuration,
}

impl CorePool {
    /// Creates a pool of `cores` idle cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> CorePool {
        assert!(cores > 0, "a server needs at least one core");
        CorePool {
            free_at: (0..cores).map(|_| Reverse(SimTime::ZERO)).collect(),
            cores,
            busy_time: SimDuration::ZERO,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Assigns a job arriving at `now` needing `service` of core time.
    /// Returns `(start, end)`: the job waits until a core frees up.
    pub fn assign(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let Reverse(free) = self.free_at.pop().expect("pool is never empty");
        let start = free.max(now);
        let end = start + service;
        self.free_at.push(Reverse(end));
        self.busy_time += service;
        (start, end)
    }

    /// Total core-time consumed so far (for utilisation reporting).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Mean core utilisation over `[0, now]`.
    pub fn utilisation(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        self.busy_time.as_secs_f64() / (now.as_secs_f64() * self.cores as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_serialises_jobs() {
        let mut p = CorePool::new(1);
        let d = SimDuration::from_millis(5);
        let (s1, e1) = p.assign(SimTime::ZERO, d);
        let (s2, e2) = p.assign(SimTime::ZERO, d);
        assert_eq!((s1, e1), (SimTime::ZERO, SimTime::from_millis(5)));
        assert_eq!(
            (s2, e2),
            (SimTime::from_millis(5), SimTime::from_millis(10))
        );
    }

    #[test]
    fn idle_pool_starts_immediately() {
        let mut p = CorePool::new(4);
        let (s, _) = p.assign(SimTime::from_millis(100), SimDuration::from_millis(1));
        assert_eq!(s, SimTime::from_millis(100));
    }

    #[test]
    fn picks_earliest_free_core() {
        let mut p = CorePool::new(2);
        p.assign(SimTime::ZERO, SimDuration::from_millis(10)); // core A until 10
        p.assign(SimTime::ZERO, SimDuration::from_millis(2)); // core B until 2
        let (s, _) = p.assign(SimTime::from_millis(1), SimDuration::from_millis(1));
        assert_eq!(s, SimTime::from_millis(2), "waits for core B, not A");
    }

    #[test]
    fn utilisation_tracks_busy_time() {
        let mut p = CorePool::new(2);
        p.assign(SimTime::ZERO, SimDuration::from_millis(10));
        p.assign(SimTime::ZERO, SimDuration::from_millis(10));
        assert!((p.utilisation(SimTime::from_millis(20)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn saturation_grows_queue_linearly() {
        let mut p = CorePool::new(1);
        // Offered load 2x capacity: waiting time grows without bound.
        let mut last_start = SimTime::ZERO;
        for i in 0..100u64 {
            let arrival = SimTime::from_millis(i * 5);
            let (start, _) = p.assign(arrival, SimDuration::from_millis(10));
            last_start = start;
        }
        // The 100th job starts around t = 990ms, ~2x its arrival time.
        assert!(last_start > SimTime::from_millis(900));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = CorePool::new(0);
    }
}
